"""Exception types raised by the engine.

Every error the library raises deliberately derives from EngineError so
callers can tell engine conditions apart from programming mistakes. Each
type carries the CLI exit code it maps to (README, "Exit codes"): 2 for an
input, config or domain fault, 3 for degenerate data, 4 for a correlation
that is not positive definite. A fault gets a type of its own only where
some caller catches it by name; every other input fault is an OutOfDomain
(wrong shapes and lengths, short windows, zero capital, bad search bounds
or knobs, a non-finite start cost), told apart by its message.
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
    """Argument, shape or setting outside what the operation accepts."""
    exit_code = 2


class IllConditioned(EngineError):
    """Correlation matrix is not usably positive definite (a Cholesky pivot
    at or below the floor)."""
    exit_code = 4


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
