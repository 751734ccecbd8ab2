"""Quadrature moments, variances, and squeezing optimization.

Variances follow the vacuum-1/2 convention.  Because displacement is a
Gaussian operation it never changes the variances, so the variances come
from the bare moments of the superposition (`dq.bare_moment`) only, and the
displacement enters the first moments alone; `moment` keeps the displaced
moments of any order up to 4.

The optimizers run on numpy alone: `minimize` is a Nelder-Mead simplex
that repeats scipy's default method step for step, and the superposition
optimum bisects the slope of an eigenvalue, batched over its brackets.
The tables tune each heralding cell on its own, one after another.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple
from types import SimpleNamespace

import numpy as np

from . import dq
from .errors import IndexOutOfRange
from .polynomials import hermite2_rows

__all__ = [
    "QuadratureReport",
    "OptimumRecord",
    "Table2Row",
    "moment",
    "principal_variances",
    "quadratures",
    "variance_of_coeffs",
    "variance_x_map",
    "optimize_cm_squeezing",
    "optimize_fock_superposition",
    "table1",
    "table2",
    "n1_optimal_alpha_sq",
    "m0_locus_variance",
]

MAX_MOMENT_ORDER = 4

# (lo, hi, step) of |alpha|^2 and of R: optimize_cm_squeezing's box and coarse scan
CM_ALPHA_SQ_AXIS = (0.05, 30.0, 0.05)
CM_R_AXIS = (0.01, 0.99, 0.0025)
# The start scan of an isolated optimum takes every SCAN_STRIDE-th point of each axis
SCAN_STRIDE = 5
TABLE2_N_MAX = 6


QuadratureReport = namedtuple("QuadratureReport", "var_x var_p mean_x mean_p min_var")


class OptimumRecord(namedtuple("OptimumRecord", "n m min_var alpha_sq R boundary_hit "
                                                "nit nfev converged scan_cells")):
    """Best squeezing found for one (n, m) heralding cell.

    nit, nfev and converged report the Nelder-Mead refinement: iterations,
    objective evaluations, whether it stopped on its tolerances rather than
    its iteration cap, and the grid cells its start scans evaluated.  The
    1e6 penalty outside the box can hold the simplex at its start on the
    box edge; from there a 1-D simplex minimizes along that edge, and nit,
    nfev and converged count both runs (optimize --n 6 --m 7 reaches the
    edge's minimum 0.246608323, where the 2-D simplex stops at 0.247224466).
    """

    __slots__ = ()


Table2Row = namedtuple("Table2Row", "n dq_min_var fock_min_var difference")


def minimize(fun, x0, *, xatol: float, fatol: float, maxiter: int) -> SimpleNamespace:
    """Nelder-Mead simplex minimum of fun from x0 (Nelder & Mead, Comput. J. 7, 308 (1965)).

    Repeats scipy.optimize.minimize(method="Nelder-Mead") with its default
    non-adaptive coefficients operation for operation, so results agree
    bit for bit: start vertices 1.05 x_k (0.00025 where x_k = 0), reflect 1,
    expand 2, contract 1/2, shrink 1/2, a re-sort by value after each step,
    and a stop once every vertex lies within xatol and every value within
    fatol of the best.  Vertices are lists of floats, re-sorted by
    np.argsort as scipy's are (numpy's sort of ties need not be stable).
    The result carries x, fun, nfev, nit (counted from 1, as scipy does)
    and success, which is false when maxiter ends the run.
    """
    x0 = np.asarray(x0, dtype=float).ravel().tolist()
    N = len(x0)
    nfev = 0

    def f(x):
        nonlocal nfev
        nfev += 1
        return float(fun(np.array(x)))

    sim = [x0] + [[(1.05 * v if v != 0 else 0.00025) if j == k else v for j, v in enumerate(x0)]
                  for k in range(N)]
    fsim = [f(v) for v in sim]
    nit = 1
    while True:
        order = np.argsort(fsim).tolist()
        sim, fsim = [sim[k] for k in order], [fsim[k] for k in order]
        if nit >= maxiter or (all(abs(c - b) <= xatol for v in sim[1:] for c, b in zip(v, sim[0]))
                              and all(abs(fsim[0] - g) <= fatol for g in fsim[1:])):
            break
        xbar = [functools.reduce(operator.add, col) / N for col in zip(*sim[:-1])]
        xr = [2 * b - w for b, w in zip(xbar, sim[-1])]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = [3 * b - 2 * w for b, w in zip(xbar, sim[-1])]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:  # contract outside the simplex if xr beats the worst vertex, else inside
            outside = fxr < fsim[-1]
            xc = [1.5 * b - 0.5 * w if outside else 0.5 * b + 0.5 * w
                  for b, w in zip(xbar, sim[-1])]
            fxc = f(xc)
            if fxc <= fxr if outside else fxc < fsim[-1]:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, N + 1):
                    sim[j] = [b + 0.5 * (c - b) for c, b in zip(sim[j], sim[0])]
                    fsim[j] = f(sim[j])
        nit += 1
    return SimpleNamespace(x=np.array(sim[0]), fun=float(np.min(fsim)), nfev=nfev, nit=nit,
                           success=nit < maxiter)


def moment(state: dq.DQState, l: int, s: int) -> complex:
    """Normally ordered moment <a^dag^l a^s> of a displaced qudit.

    D^dag a D = a + beta splits the displacement off binomially, leaving
    bare moments of the superposition.  Orders above l + s = 4 are not
    supported.
    """
    if l < 0 or s < 0:
        raise ValueError("moment orders must be non-negative")
    if l + s > MAX_MOMENT_ORDER:
        raise IndexOutOfRange(f"moment order l+s={l + s} exceeds {MAX_MOMENT_ORDER}")
    beta = complex(state.displacement)
    total = sum(
        math.comb(l, u) * math.comb(s, v) * beta.conjugate() ** (l - u) * beta ** (s - v)
        * dq.bare_moment(state.coeffs, u, v)
        for u in range(l + 1)
        for v in range(s + 1)
    )
    return complex(total)


def principal_variances(a1: complex, a2: complex, n1: float) -> tuple[float, float, float]:
    """(Var X, Var P, min_var) from the bare moments <a>, <a^2> and <a^dag a>.  min_var is
    sigma's lowest eigenvalue, the least variance of any rotated quadrature: min(Var X, Var P)
    - (hypot(d, c) - d), d = |Var X - Var P| / 2, c = Cov XP, so min(Var X, Var P) at c = 0."""
    var_x, var_p, cov = dq.covariance_from_moments(a1, a2, n1)
    d = abs(var_x - var_p) / 2
    return var_x, var_p, min(var_x, var_p) - (math.hypot(d, cov) - d)


def quadratures(state: dq.DQState) -> QuadratureReport:
    """Means and variances of X and P, and the principal variance min_var.

    The variances take bare moments (`principal_variances`), so no |beta|^2
    terms cancel in them, and the displacement shifts the means only.
    """
    a1, a2, n1 = (complex(dq.bare_moment(state.coeffs, u, v)) for u, v in ((0, 1), (0, 2), (1, 1)))
    var_x, var_p, min_var = principal_variances(a1, a2, n1.real)
    mean = math.sqrt(2.0) * (a1 + complex(state.displacement))
    return QuadratureReport(var_x, var_p, mean.real, mean.imag, min_var)


def variance_of_coeffs(coeffs):
    """X-quadrature variance of unit-norm superpositions sum_q c_q |q>.

    Coefficients run along the leading axis, trailing axes are batch axes:
    Var X = 1/2 + Re<a^2> + <a^dag a> - 2 Re<a>^2.
    """
    a1, a2, n1 = (dq.bare_moment(coeffs, u, v).real for u, v in ((0, 1), (0, 2), (1, 1)))
    return 0.5 + a2 + n1 - 2.0 * a1 * a1


def variance_x_map(n: int, m: int, alpha_sq, R) -> np.ndarray:
    """X-quadrature variance of the heralded qudit over broadcast real grids.

    Cells where every coefficient vanishes (only alpha = 0 with m > n)
    come back as NaN.  A 0-d input runs `_variance_point` and a grid
    `_variance_blocks`; each rounds every cell as one numpy evaluation of
    coefficients_grid, the norm and variance_of_coeffs does.
    """
    alpha_sq, R = np.asarray(alpha_sq, float), np.asarray(R, float)
    shape = np.broadcast_shapes(alpha_sq.shape, R.shape)
    if not shape:
        return np.float64(_variance_point(n, m, float(alpha_sq), float(R)))
    out = np.empty(shape)
    for lo, hi, v in _variance_blocks(n, m, alpha_sq, R):
        out[lo:hi] = v
    return out


def _variance_blocks(n: int, m: int, alpha_sq: np.ndarray, R: np.ndarray):
    """(lo, hi, V) for each of the `dq.row_blocks` of the grid, in order: the whole-grid numpy
    evaluation on its rows, `variance_of_coeffs` of the `dq.normalized` coefficients."""
    shape = np.broadcast_shapes(alpha_sq.shape, R.shape)

    def rows(a, lo, hi):  # an input broadcast along the leading axis passes whole
        return a[lo:hi] if a.ndim == len(shape) and a.shape[0] > 1 else a

    for lo, hi in dq.row_blocks(shape):
        c = dq.coefficients_grid(n, m, np.sqrt(rows(alpha_sq, lo, hi)), rows(R, lo, hi))
        yield lo, hi, variance_of_coeffs(dq.normalized(c))


def _variance_point(n: int, m: int, alpha_sq: float, R: float) -> float:
    """`variance_x_map` at one point, on Python floats, rounded as the 0-d numpy path.

    float ** int is np.float64 ** int, each level keeps its own 0-d np.power
    (one vector np.power rounds differently), and sums run left to right as
    np.sum's do below 8 terms (pairwise from 8).  Where a float operation
    raises, `dq.coefficients_grid` gives the coefficients, with numpy's inf.
    """
    try:
        x = math.sqrt(alpha_sq) * math.sqrt(1.0 - R)
        ratio = (1.0 - R) / R
        c = [h * float(dq._level_factor(n, q, ratio)) if q else h
             for q, h in enumerate(hermite2_rows(n, m, x, x))]
    except (ArithmeticError, ValueError):
        c = dq.coefficients_grid(n, m, np.sqrt(alpha_sq), R).tolist()

    def total(terms):  # 0.0 + t_0 + t_1 + ..., left to right
        return functools.reduce(operator.add, terms, 0.0)

    s = float(np.sum(np.square(c))) if n >= 7 else total(h * h for h in c)
    root = math.sqrt(s) if 0 < s < math.inf else math.nan  # as dq.normalized
    c = [h / root for h in c]
    a1, a2, n1 = (total(c[i] * c[j] * w for i, j, w in dq._moment_terms(n + 1, u, v))
                  for u, v in ((0, 1), (0, 2), (1, 1)))
    return 0.5 + a2 + n1 - 2.0 * a1 * a1


def optimize_cm_squeezing(n: int, m: int) -> OptimumRecord:
    """Global minimum of the X variance over the (|alpha|^2, R) box.

    Nelder-Mead refines `_variance_point` from the first least cell of a
    start scan (`_first_least`); box-boundary hits are flagged, not
    rejected, and a simplex held on a bound minimizes along it.  Isolated
    optima (n >= 2, m >= 1) scan every SCAN_STRIDE-th point of the
    CM_ALPHA_SQ_AXIS x CM_R_AXIS grid.  An optimum on the box
    edge depends on its start, so a start on the subgrid's outer ring, or a
    simplex ending within SCAN_STRIDE steps of the edge, reruns from the
    full grid.  The m = 0 and n = 1 optima are flat sets, whose reported
    point (arbitrary on the set) another start would move: they scan
    `_locus_band`, which holds the full grid's start cell.  n = 0 and a
    locus outside the box scan the full grid.
    """
    a_vals, r_vals = _cm_axes()
    scanned = 0
    if n >= 2 and m >= 1:
        sub_a, sub_r = a_vals[::SCAN_STRIDE], r_vals[::SCAN_STRIDE]
        (ia, ir), v = _first_least(n, m, sub_a[:, None], sub_r[None, :])
        scanned = sub_a.size * sub_r.size
        if 0 < ia < sub_a.size - 1 and 0 < ir < sub_r.size - 1:
            rec = _refine(n, m, sub_a[ia], sub_r[ir], v, scanned)
            if not _near_edge(rec.alpha_sq, rec.R, SCAN_STRIDE):
                return rec
    elif n >= 1 and (band := _locus_band(n, m, a_vals, r_vals)) is not None:
        (k, _), v = _first_least(n, m, a_vals[band // r_vals.size], r_vals[band % r_vals.size])
        ia, ir = divmod(int(band[k]), r_vals.size)
        return _refine(n, m, a_vals[ia], r_vals[ir], v, band.size)
    (ia, ir), v = _first_least(n, m, a_vals[:, None], r_vals[None, :])
    return _refine(n, m, a_vals[ia], r_vals[ir], v, scanned + a_vals.size * r_vals.size)


def _cm_axes() -> tuple[np.ndarray, np.ndarray]:
    """The full start-scan axes of `optimize_cm_squeezing`, |alpha|^2 and R, clipped to the box."""
    return tuple(np.minimum(np.arange(lo, hi + step / 2, step), hi)
                 for lo, hi, step in (CM_ALPHA_SQ_AXIS, CM_R_AXIS))


def _first_least(n: int, m: int, alpha_sq, R) -> tuple[tuple[int, int], float]:
    """((row, column), value) of np.nanargmin's cell, by a running argmin over the blocks."""
    best, cell = math.inf, (0, 0)
    for lo, hi, v in _variance_blocks(n, m, alpha_sq, R):
        v[np.isnan(v)] = np.inf
        j, w = int(np.argmin(v)), v.size // (hi - lo)
        if v.flat[j] < best:
            best, cell = float(v.flat[j]), (lo + j // w, j % w)
    return cell, best


def _locus_band(n: int, m: int, a_vals, r_vals):
    """Row-major flat indices of the grid cells next to a flat optimum's locus, or None.

    V is monotone in the set's invariant between its local minima, so each
    grid line's least cell lies within two cells of one: along rows at
    s*/|alpha|^2, s* bracketing each local minimum of V(s = |alpha|^2 R) on
    a 0.01 grid of s (m = 0); along columns at both `n1_optimal_alpha_sq`
    branches (n = 1).  None when no bracket meets the box.
    """
    if m == 0:
        s = np.arange(a_vals[0] * r_vals[0], a_vals[-1] * r_vals[-1] + 0.01, 0.01)
        v = variance_x_map(n, 0, s / 0.5, 0.5)
        edged = np.concatenate(([np.inf], v, [np.inf]))
        lows = np.flatnonzero((v <= edged[:-2]) & (v <= edged[2:]))
        axis = r_vals
        brackets = [(s[max(k - 1, 0)] / a_vals, s[min(k + 1, s.size - 1)] / a_vals) for k in lows]
    else:
        axis = a_vals
        brackets = [(b, b) for b in np.array([n1_optimal_alpha_sq(m, float(r)) for r in r_vals]).T]
    cells, meets = np.zeros(a_vals.size * r_vals.size, dtype=bool), False
    for low, high in brackets:
        lo, hi = np.searchsorted(axis, low), np.searchsorted(axis, high, side="right")
        meets = meets or bool(np.any((lo < axis.size) & (hi > 0)))
        start = np.maximum(lo - 2, 0)
        sizes = np.minimum(hi + 2, axis.size) - start  # lo <= hi <= axis.size: 2 cells or more
        along = np.repeat(start - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
        across = np.repeat(np.arange(sizes.size), sizes)
        cells[across * r_vals.size + along if m == 0 else along * r_vals.size + across] = True
    return np.flatnonzero(cells) if meets else None


def _near_edge(alpha_sq: float, R: float, steps: int) -> bool:
    """Whether (alpha_sq, R) lies within `steps` grid steps of the box edge."""
    return any(min(v - lo, hi - v) < steps * step
               for v, (lo, hi, step) in ((alpha_sq, CM_ALPHA_SQ_AXIS), (R, CM_R_AXIS)))


def _refine(n: int, m: int, alpha_sq, R, start_var: float, scan_cells: int) -> OptimumRecord:
    """The OptimumRecord of a Nelder-Mead run from the scan's best cell (alpha_sq, R), and,
    where that run ends on a bound of the box or within 1e-5 (10 xatol) of it, of a 1-D run on
    the bound itself."""
    (a_lo, a_hi, _), (r_lo, r_hi, _) = CM_ALPHA_SQ_AXIS, CM_R_AXIS

    def objective(p):
        a, r = float(p[0]), float(p[1])
        if not (a_lo <= a <= a_hi and r_lo <= r <= r_hi):
            return 1e6
        return _variance_point(n, m, a, r)

    res = minimize(objective, np.array([alpha_sq, R]), xatol=1e-6, fatol=1e-9, maxiter=4000)
    best, best_v = [float(res.x[0]), float(res.x[1])], float(res.fun)
    if best_v > start_var:
        best, best_v = [float(alpha_sq), float(R)], start_var
    nit, nfev, converged = res.nit, res.nfev, res.success
    box = [(a_lo, a_hi), (r_lo, r_hi)]
    edge = next((k for k, (lo, hi) in enumerate(box) if not lo + 1e-5 < best[k] < hi - 1e-5), None)
    if edge is not None:  # the penalty holds the simplex on a bound: minimize along that edge
        (lo, hi), free, point = box[edge], 1 - edge, list(best)
        point[edge] = lo if best[edge] - lo < hi - best[edge] else hi

        def along(x):
            point[free] = float(x[0])
            return objective(point)

        run = minimize(along, [best[free]], xatol=1e-10, fatol=1e-9, maxiter=4000)
        nit, nfev, converged = nit + run.nit, nfev + run.nfev, converged and run.success
        if run.fun < best_v:
            point[free] = float(run.x[0])
            best, best_v = point, run.fun
    best_a, best_r = best
    return OptimumRecord(n, m, best_v, best_a, best_r, _near_edge(best_a, best_r, 1),
                         nit, nfev, converged, scan_cells)


def _fock_shift_brackets(n: int):
    """(shifted, x1, lo, hi) for the superposition optimum on |0>..|n>.

    shifted(t) is P (X - t)^2 P, stacked along the leading axes of t, and x1
    is P X P; each [lo_i, hi_i] brackets one local minimum of the lowest
    eigenvalue of shifted(t), found on a 401-point scan of
    [0, lambda_max(P X P)].
    """
    root = np.sqrt(np.arange(1.0, n + 2))
    x = (np.diag(root, 1) + np.diag(root, -1)) / math.sqrt(2.0)  # X on |0>..|n+1>
    x2 = (x @ x)[: n + 1, : n + 1]
    x1 = x[: n + 1, : n + 1]

    def shifted(t):
        t = np.asarray(t, dtype=float)[..., None, None]
        return x2 - 2.0 * t * x1 + t * t * np.eye(n + 1)

    ts = np.linspace(0.0, np.linalg.eigvalsh(x1)[-1], 401)
    vals = np.linalg.eigvalsh(shifted(ts))[:, 0]
    edged = np.concatenate(([np.inf], vals, [np.inf]))
    lows = np.flatnonzero((vals <= edged[:-2]) & (vals <= edged[2:]))
    return shifted, x1, ts[np.maximum(lows - 1, 0)], ts[np.minimum(lows + 1, ts.size - 1)]


def _bisect_stationary(shifted, x1, lo, hi, width: float) -> np.ndarray:
    """Minimizer of lambda_min(shifted(t)) in every bracket [lo_i, hi_i] at once.

    By Hellmann-Feynman the slope of the lowest eigenvalue is 2 (t - c.x1.c)
    with c its eigenvector, and it turns from negative to positive at a
    bracketed minimum, so each bracket is halved on that sign until all are
    narrower than width.  A search on the values themselves (golden section,
    bounded Brent) stalls about 1e-7 from the minimum, where lambda_min is
    flat to rounding; the sign of the slope stays exact much closer in.
    """
    while np.max(hi - lo) > width:
        mid = (lo + hi) / 2
        c = np.linalg.eigh(shifted(mid))[1][..., 0]
        rising = mid > np.einsum("ki,ij,kj->k", c, x1, c)
        lo, hi = np.where(rising, lo, mid), np.where(rising, mid, hi)
    return (lo + hi) / 2


def optimize_fock_superposition(n: int) -> tuple[float, np.ndarray]:
    """Minimal X variance over real unit-norm superpositions of |0>..|n>.

    With P the projector onto |0>..|n>, min over unit c of Var X is
    min_t lambda_min(P (X - t)^2 P), attained by the eigenvector, whose <X>
    is the optimal t.  Parity maps X to -X, so t runs over
    [0, lambda_max(P X P)], where lambda_min has a few local minima (one at
    t = 0 for even n): one bisection, batched over their brackets, narrows
    each to a width of 1e-10.  Returns the variance and the coefficients
    with a canonical sign.
    """
    if n < 1:
        raise ValueError("need at least two superposed levels")
    shifted, x1, lo, hi = _fock_shift_brackets(n)
    lam, vecs = np.linalg.eigh(shifted(_bisect_stationary(shifted, x1, lo, hi, 1e-10)))
    c = vecs[np.argmin(lam[:, 0]), :, 0]
    if c[np.argmax(np.abs(c))] < 0:
        c = -c
    return float(variance_of_coeffs(c)), c


def table1(n_max: int = 4, m_max: int = 4) -> list[OptimumRecord]:
    """Optimal squeezing for every heralding cell n = 1..n_max, m = 0..m_max.

    Each cell is tuned on its own, row by row in n, then m.
    """
    return [optimize_cm_squeezing(n, m) for n in range(1, n_max + 1) for m in range(0, m_max + 1)]


def table2() -> list[Table2Row]:
    """Single-photon-herald optima against the unconstrained superposition optima.

    One row for each n = 1..TABLE2_N_MAX, each tuned on its own.
    """
    return [_table2_row(n) for n in range(1, TABLE2_N_MAX + 1)]


def _table2_row(n: int) -> Table2Row:
    rec = optimize_cm_squeezing(n, 1)
    fock_val, _ = optimize_fock_superposition(n)
    return Table2Row(n, rec.min_var, fock_val, rec.min_var - fock_val)


def n1_optimal_alpha_sq(m: int, R: float) -> tuple[float, float]:
    """Both branches of the n = 1 optimal-squeezing locus at fixed R.

    For n = 1 the coefficient ratio is

        C_1 / C_0 = sqrt((1 - R)/R) x / (x^2 - m),   x^2 = |alpha|^2 (1 - R),

    and the optimal qubit sqrt(3)/2 |0> +/- 1/2 |1> (Var X = 3/8) needs
    C_1 / C_0 = +/- 1/sqrt(3).  Solving the quadratic in x gives

        |alpha|^2 = [sqrt(3) +/- sqrt((3 + (4m - 3) R)/(1 - R))]^2 / (4R),

    i.e. slopes 1, 5, 9, 13, ... for m = 1, 2, 3, 4, ...  At m = 0 the
    plus branch is |alpha|^2 R = 3 and the minus branch degenerates to
    alpha = 0, so both entries are 3/R there.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if not 0.0 < R < 1.0:
        raise ValueError("R must lie strictly inside (0, 1)")
    if m == 0:
        val = 3.0 / R
        return val, val
    d = math.sqrt((3.0 + (4 * m - 3) * R) / (1.0 - R))
    s3 = math.sqrt(3.0)
    return (s3 + d) ** 2 / (4.0 * R), (s3 - d) ** 2 / (4.0 * R)


def m0_locus_variance(n: int, R: float = 0.5) -> float:
    """Variance on the vacuum-detection locus |alpha|^2 R = 3.

    The m = 0 coefficients depend on (alpha, R) only through alpha sqrt(R),
    so the value is independent of the R chosen here.
    """
    return float(variance_x_map(n, 0, 3.0 / R, R))
