"""Exception types shared by all engine modules."""


class EngineError(Exception):
    """Base class for every error raised by this package."""


class AlphabetMismatch(EngineError):
    """Arithmetic attempted between polynomials over different parameter alphabets."""


class InsufficientDepth(EngineError):
    """A pseudo-differential operator is truncated too shallow for the request."""


class IndexDivisible(EngineError):
    """A flow index divisible by r was passed where an admissible time is required."""


class WeightExceeded(EngineError):
    """A series or table was queried beyond its weight cap."""


class NotStable(EngineError):
    """Two large-rank evaluations of a stabilized correlator disagree."""


class InvariantViolated(EngineError):
    """An internal consistency check of the engine failed."""
