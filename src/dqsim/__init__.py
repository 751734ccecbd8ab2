"""dqsim: heralded beam-splitter displaced qudits.

Closed-form construction of the displaced finite superpositions produced
when a coherent state and a number state interfere on a beam splitter and
one output is heralded by photon counting, together with quadrature
squeezing optimization, non-Gaussianity measures (Hilbert-Schmidt
distance, Wigner negativity), and the lossy-detector / impure-source
pipeline.

The submodules are registered at import but run on first attribute access,
so a command pays only for the modules it uses.
"""

import importlib.util
import sys

from .errors import (
    DQSimError,
    IndexOutOfRange,
    NonFiniteResult,
    NonPhysicalCovariance,
    NoRootInBracket,
    TruncationTooSmall,
    ZeroProbability,
)


def _lazy(name: str):
    """Register submodule ``name`` in sys.modules; its code runs on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


dq, fock, imperfections, nongauss, polynomials, squeezing = map(
    _lazy, ("dq", "fock", "imperfections", "nongauss", "polynomials", "squeezing")
)

# re-exported name -> submodule that defines it, resolved by __getattr__
_EXPORTS = {
    **dict.fromkeys(("CMConfig", "DQState", "LocusTarget", "build_dq", "chi", "classify"), "dq"),
    **dict.fromkeys(("DensityMatrix", "FockVector", "Truncation"), "fock"),
    "ImperfectionParams": "imperfections",
}


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(globals()[_EXPORTS[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    "NoRootInBracket",
    "IndexOutOfRange",
]
