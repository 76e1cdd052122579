"""Exception types shared by all engine modules."""


class EngineError(Exception):
    """Base class for every error raised by this package."""


class AlphabetMismatch(EngineError):
    """Arithmetic attempted between polynomials over different parameter alphabets."""


class NotExact(EngineError):
    """A differential polynomial is not a total x-derivative."""


class NotHomogeneous(EngineError):
    """A polynomial mixes several weights; carries the set of weights found."""

    def __init__(self, degrees):
        self.degrees = frozenset(degrees)
        super().__init__(f"not homogeneous: degrees {sorted(self.degrees)}")


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
