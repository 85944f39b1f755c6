"""Exception types raised by the engine.

Every error the library raises deliberately derives from EngineError so
callers can tell engine conditions apart from programming mistakes. Each
type carries the CLI exit code it maps to (README, "Exit codes"): 2 for an
input, config or domain fault, 3 for degenerate data, 4 for a correlation
that is not positive definite. A fault gets a type of its own only where
some caller catches it by name, and one type serves every fault its
callers treat alike: an EEG net the model cannot score, whatever the
reason, is a SingularNet, and a variance that is not positive, of data or
of an EEG transition, is DegenerateData. Every other input fault is an
OutOfDomain (wrong shapes and lengths, short windows, zero capital, bad
search bounds or knobs, a non-finite start cost), told apart by its
message.
"""


class EngineError(Exception):
    """Base class for all deliberate engine errors; each subclass sets its
    own exit_code."""


class ParseError(EngineError):
    """Malformed input file or config."""
    exit_code = 2


class DegenerateData(EngineError):
    """A variance at or below its floor: a sample with no usable width, or
    an EEG conditional variance that is not positive."""
    exit_code = 3


class OutOfDomain(EngineError):
    """Argument, shape or setting outside what the operation accepts."""
    exit_code = 2


class IllConditioned(EngineError):
    """Correlation matrix is not usably positive definite (a Cholesky pivot
    at or below the floor)."""
    exit_code = 4


class SingularNet(EngineError):
    """An EEG net the model cannot score: a threshold-factor variance
    aggregate that is not positive, a singular centering solve, or a zero
    combined electrode gain in the potential-to-firing inversion."""
    exit_code = 2
