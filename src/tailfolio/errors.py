"""Exception types raised by the engine.

Every error the library raises deliberately derives from EngineError so
callers can tell engine conditions apart from programming mistakes. Each
type carries the CLI exit code it maps to (README, "Exit codes"): 2 for an
input, config or domain fault, 3 for degenerate data, 4 for a correlation
that is not positive definite.
"""


class EngineError(Exception):
    """Base class for all deliberate engine errors; each subclass sets its
    own exit_code."""


class ParseError(EngineError):
    """Malformed input file or config."""
    exit_code = 2


class DegenerateData(EngineError):
    """Sample variance below the floor; no usable width."""
    exit_code = 3


class OutOfDomain(EngineError):
    """Argument outside the mathematical domain of the operation."""
    exit_code = 2


class DimensionMismatch(EngineError):
    """Vector or matrix shapes disagree."""
    exit_code = 2


class WindowTooShort(EngineError):
    """Not enough epochs remain after pre-averaging."""
    exit_code = 2


class IllConditioned(EngineError):
    """Estimated correlation matrix is not usably positive definite."""
    exit_code = 4


class NotPositiveDefinite(EngineError):
    """Cholesky pivot at or below the floor."""
    exit_code = 4


class ZeroCapital(EngineError):
    """Portfolio value at the anchor epoch is zero."""
    exit_code = 2


class InvalidBounds(EngineError):
    """Search bounds are non-finite or inverted."""
    exit_code = 2


class CostNotFinite(EngineError):
    """Cost function returned a non-finite value at the initial point."""
    exit_code = 2


class NonPositiveDenominator(EngineError):
    """Threshold-factor variance aggregate is not positive."""
    exit_code = 2


class NoSolution(EngineError):
    """Centering solve is singular."""
    exit_code = 2


class DegenerateVariance(EngineError):
    """Conditional variance is not positive."""
    exit_code = 3


class SingularInversion(EngineError):
    """Potential-to-firing inversion has a zero combined gain."""
    exit_code = 2


class LengthMismatch(EngineError):
    """Indicator streams do not share a common epoch count."""
    exit_code = 2
