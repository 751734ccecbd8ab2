"""Exception types and numeric tolerances shared across the package."""

TOLERANCES = {
    "coefficient_cross_check_rel": 1e-10,
    "oracle_overlap": 1e-8,
    "success_probability": 1e-8,
    "moments_vs_matrix": 1e-9,
    "optimizer_variance": 1e-6,
    "wigner_pointwise": 1e-7,
    "wigner_normalization": 1e-3,
    "wigner_negativity_quadrature": 1e-3,
}


class DQSimError(Exception):
    """Base class for numerical/domain failures raised by dqsim."""


class TruncationTooSmall(DQSimError):
    """A Fock-space cutoff leaves more than the tolerated tail."""


class ZeroProbability(DQSimError):
    """A heralded event has numerically vanishing probability."""


class NonFiniteResult(DQSimError):
    """A closed-form quantity overflows the floating-point range."""


class PrecisionLoss(DQSimError):
    """Rounding leaves a result outside the range its definition allows."""


class NonPhysicalCovariance(DQSimError):
    """A quadrature covariance matrix violates det(sigma) >= 1/4."""


class NoRootInBracket(DQSimError):
    """Root search found no sign change in the scanned interval."""


class IndexOutOfRange(DQSimError):
    """Requested moment order lies outside the supported range."""
