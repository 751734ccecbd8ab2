import contextlib
import io
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqsim import cli, fock, nongauss, squeezing


def _run(argv):
    return cli.main(argv)


def test_state_json_report(tmp_path):
    out = tmp_path / "state.json"
    rc = _run(
        [
            "state",
            "--n", "2", "--m", "1",
            "--alpha-sq", "5.45", "--R", "0.8175",
            "--format", "json", "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["tool"] == "dqsim"
    fields = {row[0]: row[1] for row in doc["data"]}
    assert fields["min_var"] == pytest.approx(0.2753, abs=5e-4)
    assert fields["chi"] == pytest.approx(5.45 * (1 - 0.8175), rel=1e-9)
    assert 0.0 < fields["success_prob"] < 1.0
    assert fields["class"] == "DQ+1"


def test_state_coherent_output(tmp_path):
    out = tmp_path / "state.json"
    rc = _run(
        ["state", "--n", "0", "--m", "0", "--alpha-sq", "4", "--R", "0.5",
         "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    fields = {row[0]: row[1] for row in json.loads(out.read_text())["data"]}
    assert fields["var_x"] == pytest.approx(0.5, abs=1e-9)
    assert fields["var_p"] == pytest.approx(0.5, abs=1e-9)


def test_state_csv_report(tmp_path):
    out = tmp_path / "state.csv"
    rc = _run(["state", "--n", "2", "--m", "1", "--alpha-sq", "5.45", "--R", "0.8175",
               "--out", str(out)])
    assert rc == 0
    fields = dict(line.split(",", 1) for line in out.read_text().splitlines()[1:])
    assert fields["class"] == "DQ+1"
    assert float(fields["min_var"]) == pytest.approx(0.2753, abs=5e-4)


def test_scan_csv_format(tmp_path):
    out = tmp_path / "scan.csv"
    rc = _run(
        ["scan", "--n", "1", "--m", "0", "--grid", "0.5:4:8,0.2:0.8:4",
         "--out", str(out)]
    )
    assert rc == 0
    raw = out.read_bytes()
    assert b"\r" not in raw  # LF endings only
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "alpha_sq,R,value"
    assert len(lines) == 1 + 8 * 4
    for line in lines[1:]:
        a2, R, val = (float(x) for x in line.split(","))
        assert 0.0 < val


def test_rerun_byte_identical(tmp_path):
    cases = [
        ["scan", "--n", "1", "--m", "1", "--grid", "0.5:6:12,0.1:0.9:9", "--format", "csv"],
        ["state", "--n", "2", "--m", "3", "--alpha-sq", "3.3", "--R", "0.44",
         "--eta-d", "0.85", "--eta-s", "0.9", "--format", "json"],
        ["optimize", "--n", "1", "--m", "0", "--format", "json"],
    ]
    for i, args in enumerate(cases):
        out1, out2 = tmp_path / f"a{i}", tmp_path / f"b{i}"
        assert _run(args + ["--out", str(out1)]) == 0
        assert _run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        _run(["state", "--n", "1", "--m", "1", "--alpha-sq", "1.0"])  # missing --R
    assert exc.value.code == 2

    rc = _run(["state", "--n", "1", "--m", "1", "--alpha-sq", "1.0", "--R", "1.5"])
    assert rc == 2
    assert "--R" in capsys.readouterr().err


def test_bad_grid_exit_code(capsys):
    rc = _run(["scan", "--n", "1", "--m", "0", "--grid", "nonsense"])
    assert rc == 2
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, quantity",
    [
        # vacuum input can never herald a photon
        (["state", "--n", "0", "--m", "2", "--alpha-sq", "0", "--R", "0.5"],
         "all coefficients vanish"),
        # H_{2-q,200}(x, x) overflows at x^2 = 1500
        (["state", "--n", "2", "--m", "200", "--alpha-sq", "3000", "--R", "0.5"], "C_q overflow"),
        # exp(-|alpha|^2 (1 - R)) underflows
        (["state", "--n", "2", "--m", "1", "--alpha-sq", "100000", "--R", "0.5"],
         "success probability"),
        # m! no longer fits in a float, and R^n / (m! n!) underflows
        (["state", "--n", "2", "--m", "171", "--alpha-sq", "1", "--R", "0.5"],
         "success probability"),
        # the coefficients are finite, but the degree-240 Wigner polynomial overflows
        (["wigner", "--n", "120", "--m", "0", "--alpha-sq", "1", "--R", "0.5", "--points", "5"],
         "NonFiniteResult: Wigner function overflows on the phase-space grid"),
    ],
    ids=["zero-probability", "coefficient-overflow", "probability-underflow",
         "factorial-overflow", "wigner-overflow"],
)
def test_numerical_failure_exit_code(capsys, argv, quantity):
    rc = _run(argv)
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and quantity in err
    assert len(err.strip().splitlines()) == 1


def _mp_mixture(n, m, a2, R, eta_d, eta_s, k_max=400):
    """Realized probability and fidelity from a 50-digit mpmath evaluation of the k sum."""
    with mpmath.workdps(50):
        R, eta_d, eta_s = mpmath.mpf(R), mpmath.mpf(eta_d), mpmath.mpf(eta_s)
        x = mpmath.sqrt(mpmath.mpf(a2) * (1 - R))
        f = mpmath.factorial

        def coeffs(n_src, k):  # C_q = C(n,q) sqrt(q!) ((1-R)/R)^(q/2) H_{n-q,k}(x, x)
            return [mpmath.binomial(n_src, q) * mpmath.sqrt(f(q)) * ((1 - R) / R) ** (q / 2.0)
                    * mpmath.fsum((-1) ** i * mpmath.binomial(n_src - q, i) * mpmath.binomial(k, i)
                                  * f(i) * x ** (n_src - q + k - 2 * i)
                                  for i in range(min(n_src - q, k) + 1))
                    for q in range(n_src + 1)]

        ideal = coeffs(n, m)
        ideal_norm2 = mpmath.fsum(c**2 for c in ideal)
        prob = overlap = mpmath.mpf(0)
        for n_src, branch in ((n, eta_s), (0, 1 - eta_s)):
            for k in range(m, k_max):
                c = coeffs(n_src, k)
                w = mpmath.binomial(k, m) * eta_d**m * (1 - eta_d) ** (k - m)
                scale = branch * w * R**n_src * mpmath.exp(-(x**2)) / (f(k) * f(n_src))
                prob += scale * mpmath.fsum(ci**2 for ci in c)
                overlap += scale * mpmath.fsum(a * b for a, b in zip(ideal, c)) ** 2 / ideal_norm2
        return float(prob), float(overlap / prob)


def test_rare_herald_state_matches_mpmath(tmp_path):
    # p(2, 1) ~ 1e-28, where a Fock-space evolution loses the herald to rounding
    out = tmp_path / "state.json"
    rc = _run(["state", "--n", "2", "--m", "1", "--alpha-sq", "150", "--R", "0.5",
               "--eta-d", "0.9", "--format", "json", "--out", str(out)])
    assert rc == 0
    fields = {row[0]: row[1] for row in json.loads(out.read_text())["data"]}
    prob, fid = _mp_mixture(2, 1, 150, 0.5, 0.9, 1.0)
    assert fields["success_prob_realized"] == pytest.approx(prob, rel=1e-10)
    assert fields["fidelity_realized"] == pytest.approx(fid, rel=1e-10)


def test_fidelity_map_rare_herald_matches_mpmath(tmp_path):
    out = tmp_path / "f.csv"
    rc = _run(["fidelity-map", "--n", "2", "--m", "1", "--alpha-sq", "150", "--R", "0.5",
               "--grid", "0.5:0.9:2,0.5:1:2", "--out", str(out)])
    assert rc == 0
    rows = [tuple(float(v) for v in ln.split(",")) for ln in out.read_text().splitlines()[1:]]
    assert len(rows) == 4
    for eta_d, eta_s, fid in rows:
        assert fid == pytest.approx(_mp_mixture(2, 1, 150, 0.5, eta_d, eta_s)[1], rel=1e-10)


def _no_two_mode_fock(*args, **kwargs):
    raise AssertionError("a CLI command evolved the two-mode Fock state")


def test_fidelity_map_overflow_exit_code(capsys, monkeypatch):
    # chi = 200: p(2, k) overflows before the k sum closes (the documented limit)
    monkeypatch.setattr(fock, "_bs_output", _no_two_mode_fock)
    rc = _run(["fidelity-map", "--n", "2", "--m", "1", "--alpha-sq", "400", "--R", "0.5",
               "--grid", "0.5:0.9:2,0.5:1:2"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "NonFiniteResult" in err and "overflows" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["state", "--n", "2", "--m", "1", "--alpha-sq", "5.45", "--R", "0.8175",
         "--eta-d", "0.9", "--eta-s", "0.9"],
        ["table3"],
        ["fidelity-map", "--n", "2", "--m", "1", "--alpha-sq", "5.45", "--R", "0.8175"],
    ],
    ids=["state", "table3", "fidelity-map"],
)
def test_imperfection_commands_evolve_no_two_mode_state(tmp_path, monkeypatch, argv):
    monkeypatch.setattr(fock, "_bs_output", _no_two_mode_fock)
    assert _run(argv + ["--out", str(tmp_path / "out")]) == 0


def test_k_sum_meta(tmp_path):
    config = ["--n", "3", "--m", "2", "--alpha-sq", "9", "--R", "0.4"]
    for argv in (["state", *config, "--eta-d", "0.05", "--eta-s", "0.5"],
                 ["fidelity-map", *config, "--grid", "0:1:5,0:1:3"]):
        out = tmp_path / "out.json"
        assert _run(argv + ["--format", "json", "--out", str(out)]) == 0
        meta = json.loads(out.read_text())["meta"]
        assert "dim" not in meta
        assert meta["k_cutoff"] >= 2 and 0 <= meta["k_tail_bound"] <= 1e-16


@pytest.mark.parametrize("grid", ["0:2:3,-1:1:3", "0:1:3,0:1.5:2", "-0.5:1:3,0:1:3"])
def test_fidelity_map_grid_outside_unit_square(capsys, grid):
    rc = _run(["fidelity-map", "--n", "1", "--m", "1", "--alpha-sq", "2", "--R", "0.6",
               f"--grid={grid}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "[0, 1]" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["state", "table3", "fidelity-map"])
def test_dim_flag_removed(command):
    config = [] if command == "table3" else ["--n", "1", "--m", "1", "--alpha-sq", "2", "--R", "0.6"]
    with pytest.raises(SystemExit) as exc:
        _run([command, *config, "--dim", "40"])
    assert exc.value.code == 2


_SCIPY_PROBE = """
import importlib.abc, json, sys


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is blocked: " + name)
        return None


sys.meta_path.insert(0, NoScipy())
from dqsim import cli
for argv in {commands!r}:
    assert cli.main(argv + ["--out", {out!r}]) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def _loaded_scipy_modules(commands, tmp_path):
    """Run commands through cli.main in a fresh interpreter in which importing scipy fails."""
    code = _SCIPY_PROBE.format(commands=commands, out=str(tmp_path / "out"))
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_commands_import_no_scipy(tmp_path):
    config = ["--n", "2", "--m", "1", "--alpha-sq", "2.5", "--R", "0.6"]
    commands = [
        ["state", *config],
        ["state", *config, "--eta-d", "0.8", "--format", "json"],
        ["wigner", *config, "--grid", "4:21"],
        ["scan", "--n", "1", "--m", "1", "--grid", "0.5:4:4,0.2:0.8:3"],
        ["hsd-scan", "--n", "1", "--m", "2", "--grid", "1:6:4,0.3:0.7:3"],
        ["fidelity-map", *config, "--grid", "0.5:1:3,0.5:1:3"],
        ["table3"],
        ["optimize", "--n", "1", "--m", "1"],
        ["table2"],
    ]
    assert _loaded_scipy_modules(commands, tmp_path) == []


def test_wigner_grid_output(tmp_path):
    out = tmp_path / "w.csv"
    rc = _run(
        ["wigner", "--n", "1", "--m", "1", "--alpha-sq", "1.0", "--R", "0.5",
         "--grid", "4:41", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re_beta,im_beta,value"
    assert len(lines) == 1 + 41 * 41


def test_fidelity_map_output(tmp_path):
    out = tmp_path / "f.csv"
    rc = _run(
        ["fidelity-map", "--n", "1", "--m", "1", "--alpha-sq", "2.0", "--R", "0.6",
         "--grid", "0.5:1:3,0:1:3", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "eta_d,eta_s,fidelity"
    rows = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]
    corner = [f for d, s, f in rows if d == 1.0 and s == 1.0]
    assert corner and corner[0] == pytest.approx(1.0, abs=1e-8)


def test_optimize_json(tmp_path):
    out = tmp_path / "opt.json"
    rc = _run(["optimize", "--n", "1", "--m", "0", "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    row = dict(zip(doc["columns"], doc["data"][0]))
    assert row["min_var"] == pytest.approx(0.375, abs=5e-4)
    (run,) = doc["meta"]["optimizer"]
    assert run["converged"] is True and 1 <= run["nit"] < run["nfev"]


def test_table1_json_meta_lists_optimizer_runs(tmp_path, monkeypatch):
    full_table1 = squeezing.table1
    monkeypatch.setattr(squeezing, "table1", lambda: full_table1(n_max=2, m_max=1))
    csv_out, json_out = tmp_path / "t1.csv", tmp_path / "t1.json"
    assert _run(["table1", "--out", str(csv_out)]) == 0
    assert _run(["table1", "--format", "json", "--out", str(json_out)]) == 0
    doc = json.loads(json_out.read_text())
    records = full_table1(n_max=2, m_max=1)
    assert doc["meta"]["optimizer"] == [
        {"nit": r.nit, "nfev": r.nfev, "converged": r.converged, "scan_cells": r.scan_cells}
        for r in records
    ]
    assert len(doc["data"]) == len(csv_out.read_text().splitlines()) - 1 == 4


def test_hsd_scan_small(tmp_path):
    out = tmp_path / "h.csv"
    rc = _run(["hsd-scan", "--n", "1", "--m", "2", "--grid", "1:6:4,0.3:0.7:3",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha_sq,R,value"
    vals = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert all(-1e-9 <= v <= 0.5 + 1e-6 for v in vals)


def test_scan_overflowing_norm_exits_3(capsys):
    # sum_q C_q^2 overflows while each C_q is finite (n = 150): no vacuum value 0.5
    rc = _run(["scan", "--n", "150", "--m", "0", "--grid", "1:2:2,0.1:0.2:2"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "NonFiniteResult: scan value not finite in 4 of 4 cells" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv,message", [
    # sum_q |C_q|^2 of 172 levels overflows, as in scan
    (["hsd-scan", "--n", "171", "--m", "0", "--grid", "1:2:2,0.1:0.2:2"],
     "hsd-scan value not finite in 4 of 4 cells"),
    # the Wigner polynomial of 172 levels needs 171!, which no float holds
    (["wigner", "--n", "171", "--m", "0", "--alpha-sq", "1e-6", "--R", "0.9", "--points", "3"],
     "171!"),
], ids=["hsd-scan", "wigner"])
def test_wigner_polynomial_past_float_factorial_exits_3(capsys, argv, message):
    rc = _run(argv)
    err = capsys.readouterr().err
    assert rc == 3
    assert "NonFiniteResult" in err and message in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_wigner_rounding_guard_exits_3(capsys):
    # the alternating Hermite sum of n = 40 loses up to 6e-2 here; it printed a minimum of -0.062
    # with exit 0, where the displaced-parity oracle gives about -2.5e-7
    rc = _run(["wigner", "--n", "40", "--m", "0", "--alpha-sq", "8", "--R", "0.5", "--points", "41"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "PrecisionLoss: the Wigner polynomial of 41 levels rounds to up to" in err
    assert "past wigner_pointwise 1e-07" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_wigner_displaced_n22_matches_oracle(tmp_path):
    # a displacement of 10: the displaced-frame sum was off by up to 1.04e-6 here with exit 0
    from dqsim import dq, nongauss

    out = tmp_path / "w.csv"
    argv = ["wigner", "--n", "22", "--m", "6", "--alpha-sq", "100", "--R", "0.6", "--points", "41"]
    assert _run([*argv, "--out", str(out)]) == 0
    re_beta, im_beta, value = np.loadtxt(out, delimiter=",", skiprows=1).T
    state, _ = dq.build_dq(dq.CMConfig(22, 6, complex(10.0), 0.6))
    rho = fock.DensityMatrix(np.outer(state.coeffs, state.coeffs.conj()))
    oracle = nongauss.wigner_oracle(rho, re_beta + 1j * im_beta - state.displacement)
    assert value.size == 41 * 41
    assert np.max(np.abs(value - oracle)) <= 1e-7


def test_wigner_n20_passes_the_rounding_guard(tmp_path):
    out = tmp_path / "w.csv"
    argv = ["wigner", "--n", "20", "--m", "0", "--alpha-sq", "8", "--R", "0.5", "--points", "41"]
    assert _run([*argv, "--out", str(out)]) == 0
    assert np.all(np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)))


_MODULE_RUNS = """
import importlib.machinery, os, sys
run = importlib.machinery.SourceFileLoader.exec_module
def exec_module(self, module):
    if module.__name__.split(".")[0] == "dqsim" or module.__name__.startswith("numpy.polynomial"):
        os.write(2, f"ran {os.getpid()} {module.__name__}\\n".encode())
    return run(self, module)
importlib.machinery.SourceFileLoader.exec_module = exec_module
from dqsim import cli
sys.exit(cli.main([sys.argv[1], "--out", os.devnull]))
"""


@pytest.mark.parametrize("command", ["table1", "table2", "table3"])
def test_table_rows_run_each_module_in_one_process(command):
    # every lazily loaded module runs once, and numpy.polynomial, which no row needs, never
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _MODULE_RUNS, command], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    runs = [line.split()[1:] for line in proc.stderr.splitlines() if line.startswith("ran ")]
    pids = {}
    for pid, module in runs:
        pids.setdefault(module, []).append(pid)
    if command == "table3":  # the herald sum and the negativity: neither fock nor squeezing
        assert {m for m in pids if m.startswith("dqsim")} == {
            "dqsim", "dqsim.errors", "dqsim.cli", "dqsim.dq", "dqsim.imperfections",
            "dqsim.nongauss", "dqsim.polynomials"}
    else:
        assert {"dqsim.cli", "dqsim.dq", "dqsim.squeezing"} <= pids.keys()
    assert [module for module in pids if module.startswith("numpy.polynomial")] == []
    assert {module: p for module, p in pids.items() if len(p) != 1} == {}


_CONFIG = ["--n", "2", "--m", "1", "--alpha-sq", "5.45", "--R", "0.8175"]


@pytest.mark.parametrize("argv", [
    ["wigner", *_CONFIG],
    ["hsd-scan", "--n", "2", "--m", "1"],
    ["scan", "--n", "2", "--m", "1"],
    ["table1"],
    ["table2"],
    ["table3"],
    ["state", *_CONFIG],
    ["state", *_CONFIG, "--eta-d", "0.9"],
    ["optimize", "--n", "2", "--m", "1"],
    ["fidelity-map", *_CONFIG, "--grid", "0.5:1:3,0.5:1:3"],
], ids=["wigner", "hsd-scan", "scan", "table1", "table2", "table3", "state", "state-eta-d",
        "optimize", "fidelity-map"])
def test_grid_commands_leave_numpy_polynomial_unloaded(argv):
    # no command needs numpy.polynomial's nine modules; the negativity has its own Chebyshev and
    # Gauss-Legendre pieces
    code = ("import os, sys\nfrom dqsim import cli\n"
            "rc = cli.main(sys.argv[1:] + ['--out', os.devnull])\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
            "sys.exit(rc)")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_hsd_scan_delta_outside_its_range_exits_3(capsys, monkeypatch):
    # the guard against a kernel that leaves [0, 1/2]
    from dqsim import nongauss

    monkeypatch.setattr(nongauss, "hsd_of_coeffs", lambda c: np.array([[-0.1, 0.2], [0.6, 0.3]]))
    rc = _run(["hsd-scan", "--n", "40", "--m", "0", "--grid", "0.05:1:2,0.05:0.5:2"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "PrecisionLoss: hsd-scan value outside [-1e-09, 0.500000001] in 2 of 4 cells" in err
    assert "at alpha_sq=0.05, R=0.05" in err
    assert len(err.strip().splitlines()) == 1


def test_hsd_scan_n40_default_grid_stays_in_range(tmp_path):
    out = tmp_path / "h.csv"
    assert _run(["hsd-scan", "--n", "40", "--m", "0", "--out", str(out)]) == 0
    values = np.loadtxt(out, delimiter=",", skiprows=1)[:, 2]
    assert values.size == 80 * 46 and np.all((values >= 0) & (values <= 0.5))


def test_k_sum_overflow_names_k_and_requested_m(capsys):
    # sum_q |C_q|^2 of the term k = 165 overflows; a finite map needs log-scale heralding
    rc = _run(["fidelity-map", "--n", "2", "--m", "70", "--alpha-sq", "140", "--R", "0.5"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "NonFiniteResult" in err and "k=165" in err and "m=70," in err and "m=165" not in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_flat_row_optimize_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma; the locus band of a flat row needs no sort
    code = ("import os, sys\nfrom dqsim import cli\n"
            "cli.main(['optimize', '--n', '1', '--m', '2', '--out', os.devnull])\n"
            "print('numpy.ma' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["wigner", "--n", "1", "--m", "1", "--alpha-sq", "1.0", "--R", "0.5", "--points", "1"],
        ["wigner", "--n", "1", "--m", "1", "--alpha-sq", "1.0", "--R", "0.5", "--grid", "6:1"],
        ["table3", "--points", "401"],
    ],
)
def test_bad_points_exit_code(capsys, argv):
    if argv[0] == "table3":
        # table3's negativity takes no grid, so argparse rejects the flag
        with pytest.raises(SystemExit) as exc:
            _run(argv)
        assert exc.value.code == 2
        return
    assert _run(argv) == 2
    err = capsys.readouterr().err
    assert ">= 2" in err
    assert len(err.strip().splitlines()) == 1


def test_dim_only_where_read():
    with pytest.raises(SystemExit) as exc:
        _run(["hsd-scan", "--n", "1", "--m", "2", "--grid", "1:6:4,0.3:0.7:3", "--dim", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["state", "wigner", "fidelity-map"])
@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
def test_alpha_sq_must_be_finite(capsys, command, value):
    assert _run([command, "--n", "2", "--m", "1", "--alpha-sq", value, "--R", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "--alpha-sq" in err and "must be finite and >= 0" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv, rule",
    [
        (["hsd-scan", "--n", "2", "--m", "1", "--grid", "0.1:1:3,0:1:3"], "R must lie in (0, 1)"),
        (["hsd-scan", "--n", "2", "--m", "1", "--grid", "0.1:1:3,0.5:1:3"], "R must lie in (0, 1)"),
        (["scan", "--n", "2", "--m", "1", "--grid=-1:1:3,0.1:0.9:3"], "|alpha|^2 must be >= 0"),
        (["scan", "--n", "2", "--m", "1", "--grid", "0:inf:3,0.1:0.9:3"], "finite LO < HI"),
        (["scan", "--n", "2", "--m", "1", "--grid", "0:1:3,nan:0.9:3"], "finite LO < HI"),
        (["fidelity-map", "--n", "2", "--m", "1", "--alpha-sq", "1", "--R", "0.5",
          "--grid", "0:1:3,-inf:1:3"], "finite LO < HI"),
        (["wigner", "--n", "2", "--m", "1", "--alpha-sq", "1", "--R", "0.5", "--grid", "inf:5"],
         "finite HALFWIDTH > 0"),
        (["wigner", "--n", "2", "--m", "1", "--alpha-sq", "1", "--R", "0.5", "--grid", "nan:5"],
         "finite HALFWIDTH > 0"),
        # finite bounds whose span overflows a float
        (["scan", "--n", "2", "--m", "1", "--grid=-1e308:1e308:3,0.1:0.9:3"], "finite span HI - LO"),
        (["wigner", "--n", "2", "--m", "1", "--alpha-sq", "5", "--R", "0.5", "--grid", "1e308:3"],
         "finite window 2 HALFWIDTH"),
        (["fidelity-map", "--n", "2", "--m", "1", "--alpha-sq", "5", "--R", "0.5",
          "--grid=-1e308:1e308:3,0:1:2"], "finite span HI - LO"),
    ],
)
def test_grid_bounds_rejected(capsys, argv, rule):
    assert _run(argv) == 2
    err = capsys.readouterr().err
    assert rule in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, module, kernel", [
    (["wigner", "--n", "2", "--m", "1", "--alpha-sq", "5", "--R", "0.5", "--points", "100000"],
     nongauss.PhaseGrid, "mesh"),
    (["scan", "--n", "2", "--m", "1", "--grid", "0:1:100000,0.1:0.9:100000"],
     squeezing, "variance_x_map"),
], ids=["wigner", "scan"])
def test_grid_too_large_to_allocate_exits_3(monkeypatch, capsys, argv, module, kernel):
    # the first large allocation fails as numpy's would, so nothing large is allocated
    def kernel_fails(*args, **kwargs):
        raise MemoryError("Unable to allocate 149. GiB for an array with shape (100000, 100000)")

    monkeypatch.setattr(module, kernel, kernel_fails)
    assert _run(argv) == 3
    err = capsys.readouterr().err
    assert "MemoryError" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_scan_alpha_zero_nan_stays(tmp_path):
    # alpha = 0 with m > n heralds nothing: documented NaN cells, exit 0
    out = tmp_path / "scan.csv"
    assert _run(["scan", "--n", "1", "--m", "2", "--grid", "0:1:3,0.2:0.8:3",
                 "--out", str(out)]) == 0
    values = [line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[1:]]
    assert values[:3] == ["nan"] * 3 and "nan" not in values[3:]


def test_level_factor_past_float_factorial(capsys):
    # q! overflows a float from q = 171; the state is reported or fails in one line
    rc = _run(["state", "--n", "200", "--m", "1", "--alpha-sq", "1", "--R", "0.5"])
    err = capsys.readouterr().err
    assert rc in (0, 3)
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def _value(draw, valid, invalid):
    """A flag value: an in-range extreme three times as often as an out-of-range one."""
    return draw(st.sampled_from(valid * 3 + invalid))


_ALPHA_SQ = ["0", "1e-300", "0.5", "2.5", "40", "1e5", "1e300"]
_R = ["1e-300", "1e-9", "0.5", "0.999999999"]
_BAD = ["inf", "-inf", "nan", "-1"]


@st.composite
def _cli_argv(draw):
    """A command with flags drawn from ordinary values, 0, +-inf, nan and extremes.

    Huge n reaches only state and scan, whose cost stays small there; the
    other commands would run long, not fail."""
    command = draw(st.sampled_from(["state", "wigner", "fidelity-map", "scan", "hsd-scan"]))
    counts = ["0", "1", "3"] + (["171", "400"] if command in ("state", "scan") else [])
    argv = [command, f"--n={_value(draw, counts, ['-1'])}",
            f"--m={_value(draw, ['0', '1', '3', '171', '400'], ['-1'])}"]

    def axis(valid):
        lo, hi = sorted(draw(st.lists(st.sampled_from(valid), min_size=2, max_size=2,
                                      unique=True)), key=float)
        if draw(st.integers(0, 3)) == 0:  # one bound out of range, or reversed
            lo, hi = draw(st.sampled_from([(hi, lo), (lo, draw(st.sampled_from(_BAD + ["1"])))]))
        return f"{lo}:{hi}:{draw(st.sampled_from(['2', '3', '5']))}"

    if command in ("state", "wigner", "fidelity-map"):
        argv += [f"--alpha-sq={_value(draw, _ALPHA_SQ, _BAD)}",
                 f"--R={_value(draw, _R, _BAD + ['0', '1'])}"]
    if command == "state":
        for flag in ("--eta-d", "--eta-s"):
            if draw(st.booleans()):
                argv.append(f"{flag}={_value(draw, ['0', '1e-300', '0.5', '1'], _BAD)}")
    elif command == "wigner":
        half = _value(draw, ["1e-300", "0.5", "6", "1e300"], _BAD + ["0"])
        argv.append(f"--grid={half}:{_value(draw, ['5', '9'], ['4'])}")
    elif command == "fidelity-map":
        argv.append(f"--grid={axis(['0', '1e-300', '0.5', '1'])},{axis(['0', '0.5', '1'])}")
    else:
        argv.append(f"--grid={axis(_ALPHA_SQ)},{axis(_R)}")
    return argv


@settings(max_examples=1000)
@given(_cli_argv())
def test_cli_fuzz_exit_codes(argv):
    # RuntimeWarning is an error in the tests, so an unguarded warning fails here too
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = _run(argv)
        except SystemExit as exc:  # argparse's own usage error
            assert exc.code == 2, argv
            return
    lines = err.getvalue().strip().splitlines()
    assert rc in (0, 2, 3), (argv, lines)
    assert len(lines) == 1, (argv, lines)  # the error, or the timing line on success
    n, m = (int(a.split("=")[1]) for a in argv[1:3])
    for row in out.getvalue().splitlines()[1:]:
        # the one documented non-finite value: alpha = 0 with m > n heralds nothing
        assert ("nan" not in row and "inf" not in row) or (row.startswith("0,") and m > n), argv


def test_traced_table3_counts_every_row(tmp_path):
    # perfbench's tracer sees the calls of this process only, so it counts every row here
    root = Path(cli.__file__).resolve().parents[2]
    record = tmp_path / "record.json"
    path = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "launch.py"), str(record), "--trace", "--",
         "table3", "--out", os.devnull],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    agg = json.loads(record.read_text())["trace"]["agg"]
    assert sum(calls for name, _, calls, _, _ in agg if name == "nongauss.wigner_negativity") == 4


def test_cli_import_loads_no_process_pools():
    code = (
        "import sys, dqsim.cli\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_perfbench_spans_install_on_cli_modules():
    # perfbench/spans.py wraps dqsim names by module attribute; a deleted or
    # unbound name makes install() raise and every traced benchmark run fail
    code = "import dqsim.cli, spans\nspans.install()\nprint('installed')"
    root = Path(cli.__file__).resolve().parents[2]
    path = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "installed"


def test_out_into_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    assert _run(["table2", "--out", str(target)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and str(target) in lines[0] and "Traceback" not in lines[0]
    assert not target.parent.exists()


def test_wigner_grid_and_points_together_exit_2(capsys):
    config = ["--n", "1", "--m", "1", "--alpha-sq", "1.0", "--R", "0.5"]
    assert _run(["wigner", *config, "--grid", "3:9", "--points", "13"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1 and "--points" in captured.err
    # each flag alone sets the points per axis; without either, 201
    for flags, points in ((["--grid", "3:9"], 9), (["--points", "13"], 13), ([], 201)):
        assert _run(["wigner", *config, *flags]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + points**2


_STARTUP_PROBE = """
import os, sys, types
import dqsim.cli

def ran():
    return sorted(name for name, mod in sys.modules.items()
                  if name.startswith("dqsim.") and type(mod) is types.ModuleType)

print(sorted(name for name in sys.modules if name.startswith("dqsim.")))
print(ran(), [name for name in ("fractions", "json") if name in sys.modules])
dqsim.cli.main(["optimize", "--n", "1", "--m", "0", "--out", os.devnull])
print(ran())
"""


def test_cli_import_runs_only_what_a_command_uses():
    # type() reads a lazily loaded module's class without running it
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _STARTUP_PROBE], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    registered, imported, after_optimize = proc.stdout.splitlines()
    submodules = ["cli", "dq", "errors", "fock", "imperfections", "nongauss", "polynomials",
                  "squeezing"]
    assert registered == str([f"dqsim.{name}" for name in submodules])
    assert imported == "['dqsim.cli', 'dqsim.errors'] []"
    assert after_optimize == str(["dqsim.cli", "dqsim.dq", "dqsim.errors", "dqsim.polynomials",
                                  "dqsim.squeezing"])


def _per_row_csv(header, xs, ys, values):
    """The row-at-a-time CSV the grid writer replaces."""
    rows = zip(product(xs, ys), np.asarray(values).flat)
    return "\n".join([",".join(header)] + ["%.12g,%.12g,%.12g" % (float(x), float(y), float(v))
                                           for (x, y), v in rows]) + "\n"


_SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2e-308, 1e300, -1e300,
            1 / 3, 123456789012.5, 1e-5, 1e16]


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (3, 5), (13, 2)])
def test_grid_csv_equals_per_row_format(shape):
    rng = np.random.default_rng(sum(shape))
    xs = np.concatenate([[-0.0], rng.normal(size=shape[0] - 1) * 10.0 ** rng.integers(-8, 9)])
    ys = np.linspace(0.05, 0.95, shape[1])
    values = rng.choice(np.concatenate([_SPECIAL, rng.normal(size=20)]), size=shape)
    header = ["x", "y", "value"]
    expected = _per_row_csv(header, xs, ys, values)
    assert cli._grid_csv(header, cli.Grid(xs, ys, values)) == expected
    # every special value, in every cell position of a grid
    for v in _SPECIAL:
        grid = cli.Grid(xs, ys, np.full(shape, v))
        assert cli._grid_csv(header, grid) == _per_row_csv(header, xs, ys, grid.values)
