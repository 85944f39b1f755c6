"""Exception types raised by the engine.

Every error the library raises deliberately derives from EngineError so
callers (and the CLI exit-code mapping) can tell engine conditions apart
from programming mistakes.
"""


class EngineError(Exception):
    """Base class for all deliberate engine errors."""


class ParseError(EngineError):
    """Malformed input file or config."""


class DegenerateData(EngineError):
    """Sample variance below the floor; no usable width."""


class OutOfDomain(EngineError):
    """Argument outside the mathematical domain of the operation."""


class DimensionMismatch(EngineError):
    """Vector or matrix shapes disagree."""


class WindowTooShort(EngineError):
    """Not enough epochs remain after pre-averaging."""


class IllConditioned(EngineError):
    """Estimated correlation matrix is not usably positive definite."""


class NotPositiveDefinite(EngineError):
    """Cholesky pivot at or below the floor."""


class ZeroCapital(EngineError):
    """Portfolio value at the anchor epoch is zero."""


class InvalidBounds(EngineError):
    """Search bounds are non-finite or inverted."""


class CostNotFinite(EngineError):
    """Cost function returned a non-finite value at the initial point."""


class NonPositiveDenominator(EngineError):
    """Threshold-factor variance aggregate is not positive."""


class NoSolution(EngineError):
    """Centering solve is singular."""


class DegenerateVariance(EngineError):
    """Conditional variance is not positive."""


class SingularInversion(EngineError):
    """Potential-to-firing inversion has a zero combined gain."""


class LengthMismatch(EngineError):
    """Indicator streams do not share a common epoch count."""
