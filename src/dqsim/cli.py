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
cells ``scan_cells``) in ``meta.optimizer``.  A row whose simplex ends on
the box edge, or within 1e-5 of it (``boundary_hit`` true), is then
minimized along that edge, and its ``nit``, ``nfev`` and ``converged``
count both runs.  Floats
carry 12 significant digits; files are byte-identical across re-runs
(timing goes to stderr).
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


def _emit(args, header, rows, meta: dict) -> None:
    """Write rows, a list of tuples or a Grid, as CSV or JSON to --out or stdout; meta
    also names the command."""
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
                "command": args.command,
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
            raise argparse.ArgumentTypeError(f"cannot write --out {args.out}:"
                                             f" {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _parse_range(spec: str, name: str):
    try:
        lo, hi, num = spec.split(":")
        lo, hi, num = float(lo), float(hi), int(num)
        if num < 2 or not (hi > lo and math.isfinite(hi - lo)):  # the span must not overflow
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad {name} range '{spec}', expected LO:HI:POINTS with"
                                         " finite LO < HI, a finite span HI - LO and POINTS >= 2")
    return np.linspace(lo, hi, num)


def _parse_grid2(spec: str):
    parts = spec.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("grid must be 'A0:A1:NA,R0:R1:NR'")
    return _parse_range(parts[0], "first"), _parse_range(parts[1], "second")


def _scan_map(args, kernel, lo=-math.inf, hi=math.inf):
    """Header, Grid and meta of kernel(n, m, alpha_sq, R) over the --grid axes of scan or hsd-scan.

    A cell that is not finite, or outside [lo, hi], exits 3, apart from the
    documented NaN where alpha = 0 and m > n, which heralds nothing.
    """
    a_vals, r_vals = args.grid
    values = kernel(args.n, args.m, a_vals, r_vals)
    bad = ~np.isfinite(values) & ~((a_vals == 0)[:, None] & (args.m > args.n))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NonFiniteResult(f"{args.command} value not finite in {bad.sum()} of {bad.size} cells,"
                              f" first at alpha_sq={a_vals[i]:.12g}, R={r_vals[j]:.12g}")
    bad = (values < lo) | (values > hi)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise PrecisionLoss(f"{args.command} value outside [{lo:.12g}, {hi:.12g}] in {bad.sum()} of"
                            f" {bad.size} cells, first {values[i, j]:.12g} at alpha_sq="
                            f"{a_vals[i]:.12g}, R={r_vals[j]:.12g}")
    return ["alpha_sq", "R", "value"], Grid(a_vals, r_vals, values), {"n": args.n, "m": args.m}


def _parse_square(spec: str) -> tuple[float, int]:
    try:
        half_s, pts_s = spec.split(":")
        half, pts = float(half_s), int(pts_s)
        if not (0 < half and math.isfinite(2 * half) and pts >= 2):  # the window is 2 HALFWIDTH
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad wigner grid '{spec}', expected HALFWIDTH:POINTS with"
                                         " finite HALFWIDTH > 0, a finite window 2 HALFWIDTH and"
                                         " POINTS >= 2 (e.g. 6:201)")
    return half, pts


def _config(args) -> dq.CMConfig:
    return dq.CMConfig(args.n, args.m, complex(math.sqrt(args.alpha_sq)), args.R)


# ---------------------------------------------------------------------------
# command implementations


def _cmd_state(args):
    cfg = _config(args)
    state, prob = dq.build_dq(cfg)
    rep = squeezing.quadratures(state)
    rows = [("n", cfg.n), ("m", cfg.m), ("alpha_sq", args.alpha_sq), ("R", cfg.R),
            ("chi", dq.chi(cfg)), ("class", dq.classify(cfg.n, cfg.m)),
            ("displacement_re", state.displacement.real),
            ("displacement_im", state.displacement.imag),
            ("var_x", rep.var_x), ("var_p", rep.var_p), ("min_var", rep.min_var),
            ("mean_x", rep.mean_x), ("mean_p", rep.mean_p), ("success_prob", prob)]
    for q, c in enumerate(state.coeffs):
        rows += [(f"coeff_{q}_re", c.real), (f"coeff_{q}_im", c.imag)]
    if args.eta_d is not None or args.eta_s is not None:
        eta_d, eta_s = (1.0 if v is None else v for v in (args.eta_d, args.eta_s))
        terms = dq.herald_terms(cfg, [eta_d])
        prob_imp, fid = imperfections.realized_point(terms, eta_s, state.coeffs)
        a1, a2, n1 = (complex(x) / prob_imp
                      for x in imperfections.realized_moments(terms, [eta_s])[:, 0, 0])
        realized = (prob_imp, fid, *squeezing.principal_variances(a1, a2, n1.real))
        rows += zip(("success_prob_realized", "fidelity_realized", "var_x_realized",
                     "var_p_realized", "min_var_realized"), realized)
    return ["field", "value"], rows, {}


def _cmd_scan(args):
    return _scan_map(
        args, lambda n, m, a, r: squeezing.variance_x_map(n, m, a[:, None], r[None, :])
    )


def _optima(records):
    """The first six OptimumRecord fields as rows; Nelder-Mead iterations, objective
    evaluations, convergence and start-scan cells per row in meta."""
    fields = squeezing.OptimumRecord._fields
    optimizer = [dict(zip(fields[6:], r[6:])) for r in records]
    return fields[:6], [r[:6] for r in records], {"optimizer": optimizer}


def _cmd_optimize(args):
    return _optima([squeezing.optimize_cm_squeezing(args.n, args.m)])


def _cmd_table1(args):
    return _optima(squeezing.table1())


def _cmd_table2(args):
    return squeezing.Table2Row._fields, squeezing.table2(), {}


def _cmd_table3(args):
    """Success probability and exact Wigner negativity of the four benchmark states, in order."""
    eta_d, eta_s = (0.9 if v is None else v for v in (args.eta_d, args.eta_s))
    rows = []
    for n, a2, R in _TABLE3_CONFIGS:
        cfg = dq.CMConfig(n, 1, complex(math.sqrt(a2)), R)
        state, prob_ideal = dq.build_dq(cfg)
        prob = imperfections.realized_point(dq.herald_terms(cfg, [eta_d]), eta_s)[0]
        rows.append((n, a2, R, prob, nongauss.wigner_negativity(state), prob_ideal))
    header = ["n", "alpha_sq", "R", "success_prob", "wigner_negativity", "success_prob_ideal"]
    return header, rows, {"eta_d": eta_d, "eta_s": eta_s}


def _cmd_wigner(args):
    if args.grid and args.points is not None:
        raise argparse.ArgumentTypeError("--grid HALFWIDTH:POINTS sets the wigner points; give"
                                         " --grid or --points, not both")
    state, _ = dq.build_dq(_config(args))
    if args.grid:
        grid = nongauss.PhaseGrid.centered(state.displacement, *args.grid)
    else:
        grid = nongauss.default_grid(state, args.points or _WIGNER_POINTS)
    W = nongauss.wigner_closed(state, grid.mesh())
    if not np.all(np.isfinite(W)):
        raise NonFiniteResult("Wigner function overflows on the phase-space grid")
    return ["re_beta", "im_beta", "value"], Grid(grid.xs, grid.ps, W), {}


def _cmd_hsd_scan(args):
    # delta lies in [0, 1/2]; the range check is a guard against cancellation in Tr(rho tau)
    return _scan_map(args, nongauss.hsd_scan, -1e-9, 0.5 + 1e-9)


def _cmd_fidelity_map(args):
    rows = imperfections.fidelity_heatmap(_config(args), *args.grid)
    return ["eta_d", "eta_s", "fidelity"], rows, {}


# ---------------------------------------------------------------------------
# argument plumbing

# The flags a command may read, by their attribute on args: argparse's keywords, then the rule a
# given value must pass (a usage error otherwise) and its text, in the order run() checks them.
# --grid's are its command's, in _COMMANDS; every command also takes --out and --format.
_FLAGS = {
    "alpha_sq": (dict(type=float, required=True, help="coherent strength |alpha|^2"),
                 lambda v: 0 <= v < math.inf, "must be finite and >= 0"),
    "R": (dict(type=float, required=True, help="beam-splitter reflectivity"),
          lambda v: 0 < v < 1, "must lie in (0, 1)"),
    "n": (dict(type=int, required=True, help="input photon number"),
          lambda v: v >= 0, "must be >= 0"),
    "m": (dict(type=int, required=True, help="detected photon number"),
          lambda v: v >= 0, "must be >= 0"),
    "eta_d": (dict(type=float, help="detector efficiency in [0, 1]"),
              lambda v: 0 <= v <= 1, "must lie in [0, 1]"),
    "eta_s": (dict(type=float, help="source purity weight in [0, 1]"),
              lambda v: 0 <= v <= 1, "must lie in [0, 1]"),
    "points": (dict(type=int, help=f"points per axis, >= 2 (default {_WIGNER_POINTS})"),
               lambda v: v >= 2, "must be >= 2"),
    "grid": ({}, None, None),
}

# The (|alpha|^2, R) domain of the scan and hsd-scan grids: the rule and its message
_ALPHA_R = (lambda a, r: a[0] >= 0 and 0 < r[0] and r[-1] < 1,
            "bad grid '{}': |alpha|^2 must be >= 0 and R must lie in (0, 1)")

# The one list of commands: name -> (handler, help, the flags it reads, and None or its --grid:
# default, parser, and the rule its parsed axes must pass with its message, the spec in its {};
# None where the parser checks the domain).  A handler reads its --grid parsed and returns
# (header, rows, meta); rows are tuples or a Grid.
_COMMANDS = {
    "state": (_cmd_state, "single-configuration report", "n m alpha_sq R eta_d eta_s", None),
    "scan": (_cmd_scan, "min variance over an (|alpha|^2, R) grid", "n m grid",
             ("0.05:16:160,0.05:0.95:91", _parse_grid2, *_ALPHA_R)),
    "optimize": (_cmd_optimize, "best squeezing for one (n, m)", "n m", None),
    "table1": (_cmd_table1, "squeezing optima grid", "", None),
    "table2": (_cmd_table2, "heralded vs free superposition optima", "", None),
    "table3": (_cmd_table3, "benchmark success probabilities and negativities", "eta_d eta_s",
               None),
    "wigner": (_cmd_wigner, "Wigner samples for one configuration",
               "n m alpha_sq R grid points", (None, _parse_square, None, None)),
    "hsd-scan": (_cmd_hsd_scan, "non-Gaussianity over an (|alpha|^2, R) grid", "n m grid",
                 ("0.05:16:80,0.05:0.95:46", _parse_grid2, *_ALPHA_R)),
    "fidelity-map": (_cmd_fidelity_map, "fidelity over an (eta_d, eta_s) grid",
                     "n m alpha_sq R grid",
                     ("0:1:21,0:1:21", _parse_grid2,
                      lambda d, s: 0 <= min(d[0], s[0]) and max(d[-1], s[-1]) <= 1,
                      "bad fidelity-map grid '{}': eta_d and eta_s must lie in [0, 1]")),
}


def _usage(message) -> int:
    """Print "dqsim: <message>" as one stderr line, escaping str.splitlines' breaks; return 2."""
    breaks = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}
    print("dqsim: " + str(message).translate(breaks), file=sys.stderr)
    return 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """argparse's usage errors end as run()'s do: one line on stderr, exit 2."""
        self.exit(_usage(message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dqsim",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)  # subparsers are _Parser too
    for name, (_, help_text, flags, grid) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", help="output file path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        for flag in flags.split():
            p.add_argument("--" + flag.replace("_", "-"), **_FLAGS[flag][0])
        if grid:
            p.set_defaults(grid=grid[0])
    return parser


def run(args) -> int:
    start = time.perf_counter()
    handler, _, _, grid = _COMMANDS[args.command]
    for name, (_, ok, rule) in _FLAGS.items():
        val = getattr(args, name, None)
        if ok and val is not None and not ok(val):
            return _usage(f"invalid --{name.replace('_', '-')} {val}: {rule}")
    try:
        with np.errstate(all="ignore"):  # each command checks the non-finite results it returns
            if grid and args.grid is not None:
                _, parse, ok, rule = grid
                spec, args.grid = args.grid, parse(args.grid)
                if ok and not ok(*args.grid):
                    raise argparse.ArgumentTypeError(rule.format(spec))
            header, rows, meta = handler(args)
        _emit(args, header, rows, meta)
    except argparse.ArgumentTypeError as exc:
        return _usage(exc)
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
