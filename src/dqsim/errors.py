"""Exception types shared across the package."""


class DQSimError(Exception):
    """Base class for numerical/domain failures raised by dqsim."""


class TruncationTooSmall(DQSimError):
    """The Fock-space cutoff discards more amplitude mass than tolerated."""


class ZeroProbability(DQSimError):
    """A heralded event has numerically vanishing probability."""


class DimensionMismatch(DQSimError):
    """Two objects live in Fock spaces of different dimension."""


class NonFiniteResult(DQSimError):
    """A closed-form quantity overflows the floating-point range."""


class NonPhysicalCovariance(DQSimError):
    """A quadrature covariance matrix violates det(sigma) >= 1/4."""


class GridTooCoarse(DQSimError):
    """A phase-space grid is too coarse or too small for the requested integral."""


class NoRootInBracket(DQSimError):
    """Root search found no sign change in the scanned interval."""


class IndexOutOfRange(DQSimError):
    """Requested moment order lies outside the supported range."""
