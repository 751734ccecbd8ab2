"""Command-line interface emitting CSV/JSON data files.

Subcommands
-----------
state         single-configuration report (coefficients, variances, probabilities)
scan          min quadrature variance over an (|alpha|^2, R) grid
optimize      best squeezing over a box for one (n, m)
table1        squeezing optima for n = 1..4, m = 0..4
table2        optimal Fock-superposition squeezing vs the m = 1 heralded states
table3        success probability and exact Wigner negativity of the benchmark states
wigner        Wigner function samples on a phase-space grid
hsd-scan      Hilbert-Schmidt non-Gaussianity over an (|alpha|^2, R) grid
fidelity-map  ideal/realized fidelity over an (eta_d, eta_s) grid

Coherent amplitudes are entered as |alpha|^2 (real, phase 0).  CSV output
is UTF-8 with a header row and LF line endings; JSON output is one object
with a ``meta`` header and row-major ``data``; ``optimize`` and ``table1``
list each row's optimizer run (``nit``, ``nfev``, ``converged``, start-scan
cells ``scan_cells``) in ``meta.optimizer``, where a row with
``boundary_hit`` true may be ``converged`` short of the box edge's minimum,
since the penalty outside the box can hold the simplex at its start;
``state --eta-*`` and
``fidelity-map`` give their k sum's last k and relative tail bound as
``meta.k_cutoff`` and ``meta.k_tail_bound``.  Floats carry 12 significant
digits; files are byte-identical across re-runs (timing goes to stderr).
Exit codes: 0 success, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from collections import namedtuple
from itertools import product

import numpy as np

from . import __version__, dq, imperfections, nongauss, squeezing
from .errors import TOLERANCES, DQSimError, NonFiniteResult, PrecisionLoss

_TABLE3_CONFIGS = [
    (1, 3.05, 0.6000),
    (2, 5.45, 0.8175),
    (3, 6.00, 0.7650),
    (4, 6.65, 0.7275),
]
_WIGNER_POINTS = 201  # wigner's --points without --grid

# A command's output over a 2-d grid: one (x, y, value) row per cell, x varying
# slowest and values read in C order.
Grid = namedtuple("Grid", "xs ys values")


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


def _grid_csv(header: list[str], grid: Grid) -> str:
    """CSV text of a grid, the bytes of "%.12g,%.12g,%.12g" on each (x, y, value) row.

    Each axis value is formatted once into a template that holds one "%.12g"
    per cell, and every value is formatted in one % pass over it."""
    cells = ["%.12g,%%.12g" % y for y in np.asarray(grid.ys, float).tolist()]
    template = "\n".join(
        x + "," + ("\n" + x + ",").join(cells)
        for x in ["%.12g" % x for x in np.asarray(grid.xs, float).tolist()]
    )
    values = tuple(np.asarray(grid.values, float).ravel().tolist())
    return ",".join(header) + "\n" + template % values + "\n"


def _long_rows(grid: Grid) -> list[tuple]:
    """One (x, y, value) row per cell of a grid."""
    xs, ys, values = grid
    return [(float(x), float(y), float(v)) for (x, y), v in zip(product(xs, ys), values.flat)]


def _emit(args, header: list[str], rows, meta: dict) -> None:
    """Write rows, a list of tuples or a Grid, as CSV or JSON to --out or stdout."""
    if args.format == "csv":
        if isinstance(rows, Grid):
            text = _grid_csv(header, rows)
        else:
            text = "".join(",".join(map(_fmt, row)) + "\n" for row in [header, *rows])
    else:
        import json  # imported here, its only use, to keep it off start-up

        if isinstance(rows, Grid):
            rows = _long_rows(rows)
        obj = {
            "meta": {
                "tool": "dqsim",
                "version": __version__,
                "tolerances": TOLERANCES,
                **meta,
            },
            "columns": header,
            "data": [[float(format(v, ".12g")) if isinstance(v, float) else v for v in row]
                     for row in rows],
        }
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise argparse.ArgumentTypeError(
                f"cannot write --out {args.out}: {exc.strerror or exc}"
            ) from None
    else:
        sys.stdout.write(text)


def _parse_range(spec: str, name: str):
    try:
        lo, hi, num = spec.split(":")
        lo, hi, num = float(lo), float(hi), int(num)
        if num < 2 or not (hi > lo and math.isfinite(hi - lo)):  # the span must not overflow
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad {name} range '{spec}', expected LO:HI:POINTS with finite LO < HI, a finite"
            " span HI - LO and POINTS >= 2"
        )
    return np.linspace(lo, hi, num)


def _parse_grid2(spec: str):
    parts = spec.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("grid must be 'A0:A1:NA,R0:R1:NR'")
    return _parse_range(parts[0], "first"), _parse_range(parts[1], "second")


def _scan_map(args, kernel, lo=-math.inf, hi=math.inf) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Axes of the --grid of scan or hsd-scan and kernel(n, m, alpha_sq, R) over them.

    |alpha|^2 must be >= 0 and R inside (0, 1) (exit 2).  A cell that is
    not finite, or outside [lo, hi], exits 3, apart from the documented NaN
    where alpha = 0 and m > n, which heralds nothing.
    """
    a_vals, r_vals = _parse_grid2(args.grid)
    if a_vals[0] < 0 or r_vals[0] <= 0 or r_vals[-1] >= 1:
        raise argparse.ArgumentTypeError(
            f"bad grid '{args.grid}': |alpha|^2 must be >= 0 and R must lie in (0, 1)"
        )
    with np.errstate(all="ignore"):
        values = kernel(args.n, args.m, a_vals, r_vals)
    bad = ~np.isfinite(values) & ~((a_vals == 0)[:, None] & (args.m > args.n))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NonFiniteResult(
            f"{args.command} value not finite in {bad.sum()} of {bad.size} cells,"
            f" first at alpha_sq={a_vals[i]:.12g}, R={r_vals[j]:.12g}"
        )
    bad = (values < lo) | (values > hi)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise PrecisionLoss(
            f"{args.command} value outside [{lo:.12g}, {hi:.12g}] in {bad.sum()} of {bad.size}"
            f" cells, first {values[i, j]:.12g} at alpha_sq={a_vals[i]:.12g}, R={r_vals[j]:.12g}"
        )
    return a_vals, r_vals, values


def _parse_square(spec: str) -> tuple[float, int]:
    try:
        half_s, pts_s = spec.split(":")
        half, pts = float(half_s), int(pts_s)
        if not (0 < half and math.isfinite(2 * half) and pts >= 2):  # the window is 2 HALFWIDTH
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad wigner grid '{spec}', expected HALFWIDTH:POINTS with finite HALFWIDTH > 0,"
            " a finite window 2 HALFWIDTH and POINTS >= 2 (e.g. 6:201)"
        )
    return half, pts


def _config(args) -> dq.CMConfig:
    return dq.CMConfig(args.n, args.m, complex(math.sqrt(args.alpha_sq)), args.R)


# ---------------------------------------------------------------------------
# command implementations


def _cmd_state(args):
    cfg = _config(args)
    state, prob = dq.build_dq(cfg)
    rep = squeezing.quadratures(state)
    rows = [
        ("n", cfg.n),
        ("m", cfg.m),
        ("alpha_sq", args.alpha_sq),
        ("R", cfg.R),
        ("chi", dq.chi(cfg)),
        ("class", dq.classify(cfg.n, cfg.m)),
        ("displacement_re", state.displacement.real),
        ("displacement_im", state.displacement.imag),
        ("var_x", rep.var_x),
        ("var_p", rep.var_p),
        ("min_var", rep.min_var),
        ("mean_x", rep.mean_x),
        ("mean_p", rep.mean_p),
        ("success_prob", prob),
    ]
    for q, c in enumerate(state.coeffs):
        rows.append((f"coeff_{q}_re", c.real))
        rows.append((f"coeff_{q}_im", c.imag))
    meta = {"command": "state"}
    if args.eta_d is not None or args.eta_s is not None:
        eta_d, eta_s = (1.0 if v is None else v for v in (args.eta_d, args.eta_s))
        terms = imperfections.herald_terms(cfg, [eta_d])
        rho, prob_imp = imperfections.mixture(terms, 0, eta_s)
        rows.append(("success_prob_realized", prob_imp))
        rows.append(("fidelity_realized", np.vdot(state.coeffs, rho @ state.coeffs).real))
        meta.update(k_cutoff=terms.cutoff, k_tail_bound=terms.tail)
    return ["field", "value"], rows, meta


def _cmd_scan(args):
    a_vals, r_vals, V = _scan_map(
        args, lambda n, m, a, r: squeezing.variance_x_map(n, m, a[:, None], r[None, :])
    )
    meta = {"command": "scan", "n": args.n, "m": args.m}
    return ["alpha_sq", "R", "value"], Grid(a_vals, r_vals, V), meta


_OPTIMUM_HEADER = ["n", "m", "min_var", "alpha_sq", "R", "boundary_hit"]


def _optimum_row(r: squeezing.OptimumRecord) -> tuple:
    return (r.n, r.m, r.min_var, r.alpha_sq, r.R, r.boundary_hit)


def _optimizer_meta(records) -> list[dict]:
    """Nelder-Mead iterations, objective evaluations, convergence and start-scan cells per row."""
    return [{k: getattr(r, k) for k in ("nit", "nfev", "converged", "scan_cells")} for r in records]


def _cmd_optimize(args):
    rec = squeezing.optimize_cm_squeezing(args.n, args.m)
    meta = {"command": "optimize", "optimizer": _optimizer_meta([rec])}
    return _OPTIMUM_HEADER, [_optimum_row(rec)], meta


def _cmd_table1(args):
    records = squeezing.table1()
    rows = [_optimum_row(r) for r in records]
    return _OPTIMUM_HEADER, rows, {"command": "table1", "optimizer": _optimizer_meta(records)}


def _cmd_table2(args):
    rows = [
        (r.n, r.dq_min_var, r.fock_min_var, r.difference) for r in squeezing.table2()
    ]
    return (
        ["n", "dq_min_var", "fock_min_var", "difference"],
        rows,
        {"command": "table2"},
    )


def _cmd_table3(args):
    """Success probability and exact Wigner negativity of the four benchmark states, in order."""
    eta_d = args.eta_d if args.eta_d is not None else 0.9
    eta_s = args.eta_s if args.eta_s is not None else 0.9
    rows = []
    for n, a2, R in _TABLE3_CONFIGS:
        cfg = dq.CMConfig(n, 1, complex(math.sqrt(a2)), R)
        state, prob_ideal = dq.build_dq(cfg)
        _, prob = imperfections.mixture(imperfections.herald_terms(cfg, [eta_d]), 0, eta_s)
        rows.append((n, a2, R, prob, nongauss.wigner_negativity(state), prob_ideal))
    return (
        ["n", "alpha_sq", "R", "success_prob", "wigner_negativity", "success_prob_ideal"],
        rows,
        {"command": "table3", "eta_d": eta_d, "eta_s": eta_s},
    )


def _cmd_wigner(args):
    if args.grid and args.points is not None:
        raise argparse.ArgumentTypeError(
            "--grid HALFWIDTH:POINTS sets the wigner points; give --grid or --points, not both"
        )
    square = _parse_square(args.grid) if args.grid else None
    state, _ = dq.build_dq(_config(args))
    if square:
        grid = nongauss.PhaseGrid.centered(state.displacement, *square)
    else:
        grid = nongauss.default_grid(state, args.points or _WIGNER_POINTS)
    with np.errstate(all="ignore"):
        W = nongauss.wigner_closed(state, grid.mesh())
    if not np.all(np.isfinite(W)):
        raise NonFiniteResult("Wigner function overflows on the phase-space grid")
    return ["re_beta", "im_beta", "value"], Grid(grid.xs, grid.ps, W), {"command": "wigner"}


def _cmd_hsd_scan(args):
    # delta lies in [0, 1/2]; cancellation in Tr(rho tau) leaves it from about n = 40
    a_vals, r_vals, grid = _scan_map(args, nongauss.hsd_scan, -1e-9, 0.5 + 1e-9)
    meta = {"command": "hsd-scan", "n": args.n, "m": args.m}
    return ["alpha_sq", "R", "value"], Grid(a_vals, r_vals, grid), meta


def _cmd_fidelity_map(args):
    cfg = _config(args)
    d_vals, s_vals = _parse_grid2(args.grid)
    if min(d_vals[0], s_vals[0]) < 0 or max(d_vals[-1], s_vals[-1]) > 1:
        raise argparse.ArgumentTypeError(
            f"bad fidelity-map grid '{args.grid}': eta_d and eta_s must lie in [0, 1]"
        )
    terms = imperfections.herald_terms(cfg, d_vals)
    meta = {"command": "fidelity-map", "k_cutoff": terms.cutoff, "k_tail_bound": terms.tail}
    return ["eta_d", "eta_s", "fidelity"], imperfections.fidelity_rows(terms, s_vals), meta


# ---------------------------------------------------------------------------
# argument plumbing

_COMMANDS = {
    "state": _cmd_state,
    "scan": _cmd_scan,
    "optimize": _cmd_optimize,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "wigner": _cmd_wigner,
    "hsd-scan": _cmd_hsd_scan,
    "fidelity-map": _cmd_fidelity_map,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqsim",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=False, grid=None, etas=False):
        p.add_argument("--out", help="output file path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if config:
            p.add_argument("--n", type=int, required=True, help="input photon number")
            p.add_argument("--m", type=int, required=True, help="detected photon number")
        if config == "full":
            p.add_argument(
                "--alpha-sq", type=float, required=True, help="coherent strength |alpha|^2"
            )
            p.add_argument("--R", type=float, required=True, help="beam-splitter reflectivity")
        if grid:
            p.add_argument("--grid", default=grid if grid is not True else None)
        if etas:
            p.add_argument("--eta-d", type=float, help="detector efficiency in [0, 1]")
            p.add_argument("--eta-s", type=float, help="source purity weight in [0, 1]")

    p = sub.add_parser("state", help="single-configuration report")
    add_common(p, config="full", etas=True)
    p = sub.add_parser("scan", help="min variance over an (|alpha|^2, R) grid")
    add_common(p, config=True, grid="0.05:16:160,0.05:0.95:91")
    p = sub.add_parser("optimize", help="best squeezing for one (n, m)")
    add_common(p, config=True)
    p = sub.add_parser("table1", help="squeezing optima grid")
    add_common(p)
    p = sub.add_parser("table2", help="heralded vs free superposition optima")
    add_common(p)
    p = sub.add_parser("table3", help="benchmark success probabilities and negativities")
    add_common(p, etas=True)
    p = sub.add_parser("wigner", help="Wigner samples for one configuration")
    add_common(p, config="full", grid=True)
    p.add_argument("--points", type=int, help=f"points per axis, >= 2 (default {_WIGNER_POINTS})")
    p = sub.add_parser("hsd-scan", help="non-Gaussianity over an (|alpha|^2, R) grid")
    add_common(p, config=True, grid="0.05:16:80,0.05:0.95:46")
    p = sub.add_parser("fidelity-map", help="fidelity over an (eta_d, eta_s) grid")
    add_common(p, config="full", grid="0:1:21,0:1:21")
    return parser


def run(args) -> int:
    start = time.perf_counter()
    validators = {
        "alpha_sq": (lambda v: 0 <= v < math.inf, "must be finite and >= 0"),
        "R": (lambda v: 0 < v < 1, "must lie in (0, 1)"),
        "n": (lambda v: v >= 0, "must be >= 0"),
        "m": (lambda v: v >= 0, "must be >= 0"),
        "eta_d": (lambda v: 0 <= v <= 1, "must lie in [0, 1]"),
        "eta_s": (lambda v: 0 <= v <= 1, "must lie in [0, 1]"),
        "points": (lambda v: v >= 2, "must be >= 2"),
    }
    for name, (ok, rule) in validators.items():
        val = getattr(args, name, None)
        if val is not None and not ok(val):
            print(f"dqsim: invalid --{name.replace('_', '-')} {val}: {rule}", file=sys.stderr)
            return 2
    try:
        header, rows, meta = _COMMANDS[args.command](args)
        _emit(args, header, rows, meta)
    except argparse.ArgumentTypeError as exc:
        print(f"dqsim: {exc}", file=sys.stderr)
        return 2
    except DQSimError as exc:
        print(f"dqsim: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy's, for a grid too large to allocate
        print(f"dqsim: out of memory: MemoryError: {exc}", file=sys.stderr)
        return 3
    print(f"dqsim: {args.command} finished in {time.perf_counter() - start:.2f}s", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
