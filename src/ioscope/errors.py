"""Exception types shared across the ioscope library."""


class IoscopeError(Exception):
    """Base class for all library errors."""


class InvalidArgument(IoscopeError):
    """A parameter violates an operation's precondition."""


class DegenerateVariance(IoscopeError):
    """A series (or window) is constant where variance is required."""


class DegenerateSignal(IoscopeError):
    """A signal has zero energy after centering."""


class DegenerateEstimates(IoscopeError):
    """All expert estimates are zero, so no weights can be formed."""


class InsufficientScales(IoscopeError):
    """Too few usable scale values remain for a log-log regression."""


class InsufficientStructure(IoscopeError):
    """A wavelet skeleton has too few maxima lines to build moments from."""


class UnsupportedWavelet(IoscopeError):
    """The requested operation is not available for this wavelet."""


class InsufficientRatings(IoscopeError):
    """Too few graph nodes carry ratings for scenario scoring."""


class NoEdges(IoscopeError):
    """A graph operation requires at least one edge."""


class InvalidRanking(IoscopeError):
    """A ranking file or object violates the ranking invariants."""


class DimensionalityExceeded(IoscopeError):
    """A problem instance is too large for the exact algorithm."""


class NoConvergence(IoscopeError):
    """An iterative solver did not converge within its iteration budget."""
