"""Exception types shared across the package."""


class QlifError(Exception):
    """Base class for all package-specific errors."""


class SingularRegion(QlifError):
    """A point lies in (or too close to) a metric's singular set."""


class DegenerateMetric(QlifError):
    """Metric eigenvalue too small (or signature not Lorentzian) at a point."""


class ZeroNorm(QlifError):
    """A wavefunction is identically zero and cannot be normalized."""


class GridMismatch(QlifError):
    """Operands live on different grids (or an array has the wrong shape)."""


class OffGridTranslation(QlifError):
    """Requested translation is not an integer number of grid steps."""


class WrongFrame(QlifError):
    """State is tagged with the wrong frame for the requested operation."""


class MissingSourceMetric(QlifError):
    """P-frame branch lacks the source metric needed to invert it (built by hand, not by ``to_qlif``)."""


class BadContainer(QlifError, ValueError):
    """File is not a well-formed state container (magic, header or payload length)."""


class QuadratureNonConvergence(QlifError):
    """Adaptive quadrature did not reach the requested tolerance in budget."""


class InfiniteLifetime(QlifError):
    """Collapse-time request for identical configurations (zero self-energy)."""
