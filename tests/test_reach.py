"""Reach census: every command once in one process, and the dqsim code it runs.

A `sys.setprofile` hook records each dqsim function that the commands call, and a
`SourceFileLoader.exec_module` hook the command during which each dqsim module first runs.
A function that no command reaches is either a cross-check kept on purpose, listed in
`UNREACHED` with its reason, or dead code.  A listed function that a command starts to call
is a second implementation on a command path.  Either one fails the census.
"""

import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import dqsim

_CENSUS = """
import importlib.machinery, json, os, sys
from pathlib import Path
called, executed, command = set(), {}, "import"
run = importlib.machinery.SourceFileLoader.exec_module
def exec_module(self, module):
    if module.__name__.split(".")[0] == "dqsim":
        executed.setdefault(module.__name__, command)
    return run(self, module)
importlib.machinery.SourceFileLoader.exec_module = exec_module
def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)
sys.setprofile(profile)
from dqsim import cli
for argv in json.loads(sys.argv[1]):
    command = argv[0]
    if cli.main([*argv, "--out", os.devnull]) != 0:
        sys.exit(f"census: {argv} failed")
sys.setprofile(None)
pkg = os.path.dirname(cli.__file__) + os.sep
reached = {f"{Path(c.co_filename).stem}.{c.co_qualname}" for c in called
           if c.co_filename.startswith(pkg)}
print(json.dumps({"reached": sorted(reached), "executed": executed}))
"""

_CONFIG = ["--n", "2", "--m", "1", "--alpha-sq", "5.45", "--R", "0.8175"]
_SMALL_GRID = ["--grid", "0.5:8:5,0.1:0.9:5"]
# table3 and wigner come first, so that a module which they execute is charged to them
COMMANDS = [
    ["table3"],
    ["wigner", *_CONFIG, "--points", "21"],
    ["wigner", *_CONFIG, "--grid", "4:21"],
    ["fidelity-map", *_CONFIG, "--grid", "0.5:1:3,0.5:1:3"],
    ["state", *_CONFIG],
    ["state", *_CONFIG, "--format", "json"],
    ["state", *_CONFIG, "--eta-d", "0.9", "--eta-s", "0.8"],
    ["state", "--n", "2", "--m", "1", "--alpha-sq", "0", "--R", "0.5"],
    ["scan", "--n", "2", "--m", "1", *_SMALL_GRID],
    ["scan", "--n", "1", "--m", "0", *_SMALL_GRID, "--format", "json"],
    ["hsd-scan", "--n", "2", "--m", "1", *_SMALL_GRID],
    ["optimize", "--n", "2", "--m", "1"],
    ["optimize", "--n", "3", "--m", "0"],
    ["optimize", "--n", "4", "--m", "8"],
    ["table1"],
    ["table2"],
]

_FOCK = "Fock-space oracle: truncated Fock matrices and two-mode evolution, for tests and checks"
_LAGUERRE = "Laguerre route, the independent cross-check of the Hermite coefficients"
_DQ_ORACLE = "cross-check of build_dq for tests: a state from given coefficients, or a Fock vector"
_HSD = "dense-Fock Hilbert-Schmidt oracle that hsd_of_coeffs is pinned to"
_REALIZED = "Fock-space oracle of the realized state that herald_terms and mixture are pinned to"
_ACCEPT = "closed form that only the acceptance checks use"

UNREACHED = {
    "dq.DQState.from_coeffs": _DQ_ORACLE,
    "dq.to_fock": _DQ_ORACLE,
    "dq.coefficient_laguerre": _LAGUERRE,
    "polynomials.laguerre": _LAGUERRE,
    "polynomials._int_binom": _LAGUERRE,
    "dq.success_probability": "p(n, m) alone, for tests and checks; commands take it from build_dq",
    "dq.locus_solve": "the acceptance checks' chi-root loci",
    "dq.locus_solve.<locals>.c": "the acceptance checks' chi-root loci",
    "squeezing.m0_locus_variance": _ACCEPT,
    "squeezing.moment": "displaced moments up to order 4, for the oracle-equivalence check",
    "nongauss.hsd_max": "maximum of delta over its box, for the acceptance check",
    "nongauss.hsd": _HSD,
    "nongauss.match_reference": _HSD,
    "nongauss.gaussian_density": _HSD,
    "nongauss._moments_from_density": _HSD,
    "nongauss._ref_from_moments": _HSD,
    "nongauss.GaussianRef.covariance": _HSD,
    "nongauss.wigner_oracle": "displaced-parity Wigner oracle that wigner_closed is pinned to",
    "nongauss.__getattr__": "binds expm and minimize for perfbench's span tracer only",
    "imperfections.ImperfectionParams.__post_init__": _REALIZED,
    "imperfections.povm_element": _REALIZED,
    "imperfections.realized_state": _REALIZED,
    "imperfections.realized_fidelity": _REALIZED,
    "imperfections.fidelity_heatmap": "herald_terms and fidelity_rows in one call, for tests",
    **dict.fromkeys([
        "fock.Truncation.__post_init__", "fock.Truncation.auto",
        "fock.FockVector.__post_init__", "fock.FockVector.dim", "fock.FockVector.norm2",
        "fock.FockVector.density",
        "fock.DensityMatrix.__post_init__", "fock.DensityMatrix.dim", "fock.DensityMatrix.trace",
        "fock.DensityMatrix.hermiticity_defect", "fock.DensityMatrix.min_eigenvalue",
        "fock.fock_state", "fock.coherent", "fock.annihilation_matrix", "fock.expm",
        "fock.displacement_matrix", "fock.squeeze_matrix", "fock._squeezed_vacuum_kept",
        "fock.thermal_density", "fock.bs_unitary", "fock._sectors", "fock._bs_blocks",
        "fock._bs_output", "fock.brute_force_cm",
    ], _FOCK),
}


def _functions(code: types.CodeType, module: str):
    """Qualified names of the named functions compiled into code, nested ones included."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                yield f"{module}.{const.co_qualname}"
            yield from _functions(const, module)


@pytest.fixture(scope="module")
def census():
    src = Path(dqsim.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _CENSUS, json.dumps(COMMANDS)],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_commands_reach_all_but_the_oracles(census):
    pkg = Path(dqsim.__file__).resolve().parent
    defined = {name for path in sorted(pkg.glob("*.py"))
               for name in _functions(compile(path.read_text(), str(path), "exec"), path.stem)}
    assert set(UNREACHED) <= defined  # every listed name still exists
    assert sorted(defined - set(census["reached"])) == sorted(UNREACHED)


def test_no_command_runs_the_fock_module(census):
    executed = census["executed"]  # module -> the command during which it first ran
    assert "dqsim.fock" not in executed
    # table3 and wigner run first: neither needs the moments of squeezing.py
    assert executed["dqsim.squeezing"] not in ("table3", "wigner")
    assert executed["dqsim.nongauss"] == "table3"
