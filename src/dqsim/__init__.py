"""dqsim: heralded beam-splitter displaced qudits.

Closed-form construction of the displaced finite superpositions produced
when a coherent state and a number state interfere on a beam splitter and
one output is heralded by photon counting, together with quadrature
squeezing optimization, non-Gaussianity measures (Hilbert-Schmidt
distance, Wigner negativity), and the lossy-detector / impure-source
pipeline.
"""

from . import dq, fock, imperfections, nongauss, polynomials, squeezing
from .dq import CMConfig, DQState, LocusTarget, build_dq, chi, classify
from .errors import (
    DQSimError,
    GridTooCoarse,
    IndexOutOfRange,
    NonFiniteResult,
    NonPhysicalCovariance,
    NoRootInBracket,
    TruncationTooSmall,
    ZeroProbability,
)
from .fock import DensityMatrix, FockVector, Truncation
from .imperfections import ImperfectionParams

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "polynomials",
    "fock",
    "dq",
    "squeezing",
    "nongauss",
    "imperfections",
    "CMConfig",
    "DQState",
    "LocusTarget",
    "build_dq",
    "chi",
    "classify",
    "Truncation",
    "FockVector",
    "DensityMatrix",
    "ImperfectionParams",
    "DQSimError",
    "TruncationTooSmall",
    "ZeroProbability",
    "NonFiniteResult",
    "NonPhysicalCovariance",
    "GridTooCoarse",
    "NoRootInBracket",
    "IndexOutOfRange",
]
