import importlib
import pkgutil

import numpy as np
import pytest

import dqsim
from dqsim import dq, fock, nongauss, squeezing

MODULES = ["dqsim"] + [f"dqsim.{mod.name}" for mod in pkgutil.iter_modules(dqsim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name left in __all__ after its definition is deleted breaks `import *`
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


def _state():
    return dq.build_dq(dq.CMConfig(1, 1, 1.0 + 0j, 0.5))[0]


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: dq.CMConfig(1, -1, 1.0, 0.5), "m must be"),
        (lambda: dq.CMConfig(1, 1, complex(float("nan"), 0.0), 0.5), "alpha must be finite"),
        (lambda: dq.CMConfig(1, 1, float("inf"), 0.5), "alpha must be finite"),
        (lambda: dq.DQState(0j, np.eye(2)), "1-d"),
        (lambda: fock.DensityMatrix(np.zeros((2, 3))), "square"),
        (lambda: nongauss.PhaseGrid.centered(0j, 5.0, 1), "points must be >= 2"),
        (lambda: squeezing.moment(_state(), -1, 0), "non-negative"),
        (lambda: squeezing.optimize_fock_superposition(0), "two superposed levels"),
    ],
    ids=["cmconfig-negative-m", "cmconfig-nan-alpha", "cmconfig-inf-alpha", "dqstate-2d",
         "density-not-square", "phase-grid-points", "moment-negative-order",
         "fock-superposition-one-level"],
)
def test_invalid_input_raises_value_error(make, message):
    with pytest.raises(ValueError, match=message):
        make()
