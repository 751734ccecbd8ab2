"""Quadrature moments, variances, and squeezing optimization.

Variances follow the vacuum-1/2 convention.  Because displacement is a
Gaussian operation it never changes the variances, so the parameter-space
scans evaluate the bare superposition coefficients only; the moment
routine itself keeps the displacement so that first moments come out
right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from . import dq
from .errors import IndexOutOfRange

__all__ = [
    "QuadratureReport",
    "OptimumRecord",
    "Table2Row",
    "bare_moment",
    "moment",
    "covariance_from_moments",
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


@dataclass(frozen=True)
class QuadratureReport:
    var_x: float
    var_p: float
    mean_x: float
    mean_p: float
    min_var: float


@dataclass(frozen=True)
class OptimumRecord:
    """Best squeezing found for one (n, m) heralding cell."""

    n: int
    m: int
    min_var: float
    alpha_sq: float
    R: float
    boundary_hit: bool = False


@dataclass(frozen=True)
class Table2Row:
    n: int
    dq_min_var: float
    fock_min_var: float
    difference: float


def bare_moment(c, u: int, v: int) -> np.ndarray:
    """Normally ordered moment <a^dag^u a^v> of the bare superposition sum_q c_q |q>.

    Coefficients run along the leading axis of c; trailing axes are batch
    axes.  <j| a^dag^u a^v |q> = sqrt(q!/k! j!/k!) with k = q - v = j - u;
    the sum runs level by level over k = 0..n - max(u, v), so scan grids
    need no (n + 1)-fold temporaries.
    """
    c = np.asarray(c)
    total = np.zeros(c.shape[1:], dtype=c.dtype)
    for k in range(c.shape[0] - max(u, v)):
        w = math.sqrt(math.perm(k + v, v) * math.perm(k + u, u))
        total = total + np.conj(c[k + u]) * c[k + v] * w
    return total


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
        * bare_moment(state.coeffs, u, v)
        for u in range(l + 1)
        for v in range(s + 1)
    )
    return complex(total)


def covariance_from_moments(a1: complex, a2: complex, n1: float) -> tuple[float, float, float]:
    """(Var X, Var P, Cov XP) from <a>, <a^2> and <a^dag a>."""
    central = a2 - a1 * a1
    spread = n1 - abs(a1) ** 2
    return central.real + spread + 0.5, -central.real + spread + 0.5, central.imag


def quadratures(state: dq.DQState) -> QuadratureReport:
    """Means and variances of X and P."""
    a1 = moment(state, 0, 1)
    var_x, var_p, _ = covariance_from_moments(a1, moment(state, 0, 2), moment(state, 1, 1).real)
    mean_x, mean_p = math.sqrt(2.0) * a1.real, math.sqrt(2.0) * a1.imag
    return QuadratureReport(var_x, var_p, mean_x, mean_p, min(var_x, var_p))


def variance_of_coeffs(coeffs):
    """X-quadrature variance of unit-norm superpositions sum_q c_q |q>.

    Coefficients run along the leading axis, trailing axes are batch axes:
    Var X = 1/2 + Re<a^2> + <a^dag a> - 2 Re<a>^2.
    """
    a1 = bare_moment(coeffs, 0, 1).real
    return 0.5 + bare_moment(coeffs, 0, 2).real + bare_moment(coeffs, 1, 1).real - 2.0 * a1 * a1


def variance_x_map(n: int, m: int, alpha_sq, R) -> np.ndarray:
    """X-quadrature variance of the heralded qudit over broadcast real grids.

    Cells where every coefficient vanishes (only alpha = 0 with m > n)
    come back as NaN.
    """
    alpha_sq_b, R_b = np.broadcast_arrays(np.asarray(alpha_sq, float), np.asarray(R, float))
    c = dq.coefficients_grid(n, m, np.sqrt(alpha_sq_b), R_b)
    s = np.sum(c * c, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        c = np.where(s > 0, c / np.sqrt(s), np.nan)
    return variance_of_coeffs(c)


def optimize_cm_squeezing(
    n: int,
    m: int,
    alpha_sq_range: tuple[float, float] = (0.05, 30.0),
    R_range: tuple[float, float] = (0.01, 0.99),
    alpha_sq_step: float = 0.05,
    R_step: float = 0.0025,
) -> OptimumRecord:
    """Global minimum of the X variance over the (|alpha|^2, R) box.

    Coarse grid scan at the stated steps, then a Nelder-Mead refinement
    started from the best cell.  Box-boundary hits are flagged, not
    rejected.

    For m = 0 (optimum on the line |alpha|^2 R = const) and n = 1 (on the
    `n1_optimal_alpha_sq` locus) the optimum is a flat set, so the
    (|alpha|^2, R) returned there is one arbitrary point of it, moved by
    last-bit rounding changes; only ``min_var`` is reproducible.
    """
    a_lo, a_hi = alpha_sq_range
    r_lo, r_hi = R_range
    a_vals = np.arange(a_lo, a_hi + alpha_sq_step / 2, alpha_sq_step)
    r_vals = np.arange(r_lo, r_hi + R_step / 2, R_step)
    V = variance_x_map(n, m, a_vals[:, None], r_vals[None, :])
    flat = np.nanargmin(V)
    ia, ir = np.unravel_index(flat, V.shape)
    coarse_min = float(V[ia, ir])

    def objective(p):
        a, r = p
        if not (a_lo <= a <= a_hi and r_lo <= r <= r_hi):
            return 1e6
        return float(variance_x_map(n, m, a, r))

    res = minimize(
        objective,
        x0=np.array([a_vals[ia], r_vals[ir]]),
        method="Nelder-Mead",
        options={"xatol": 1e-6, "fatol": 1e-9, "maxiter": 4000},
    )
    best_a, best_r = (float(res.x[0]), float(res.x[1]))
    best_v = float(res.fun)
    if best_v > coarse_min:
        best_a, best_r, best_v = float(a_vals[ia]), float(r_vals[ir]), coarse_min
    boundary = (
        best_a - a_lo < alpha_sq_step
        or a_hi - best_a < alpha_sq_step
        or best_r - r_lo < R_step
        or r_hi - best_r < R_step
    )
    return OptimumRecord(n, m, best_v, best_a, best_r, boundary)


def optimize_fock_superposition(n: int) -> tuple[float, np.ndarray]:
    """Minimal X variance over real unit-norm superpositions of |0>..|n>.

    With P the projector onto |0>..|n>, min over unit c of Var X is
    min_t lambda_min(P (X - t)^2 P), attained by the eigenvector, whose <X>
    is the optimal t.  Parity maps X to -X, so t runs over
    [0, lambda_max(P X P)], where lambda_min has n local minima (one at
    t = 0 for even n): each bracketed minimum gets a bounded search.
    Returns the variance and the coefficients with a canonical sign.
    """
    if n < 1:
        raise ValueError("need at least two superposed levels")
    root = np.sqrt(np.arange(1.0, n + 2))
    x = (np.diag(root, 1) + np.diag(root, -1)) / math.sqrt(2.0)  # X on |0>..|n+1>
    x2 = (x @ x)[: n + 1, : n + 1]
    x1 = x[: n + 1, : n + 1]

    def shifted(t):
        return x2 - 2.0 * t * x1 + t * t * np.eye(n + 1)

    def lam(t: float) -> float:
        return float(np.linalg.eigvalsh(shifted(t))[0])

    ts = np.linspace(0.0, np.linalg.eigvalsh(x1)[-1], 401)
    vals = np.linalg.eigvalsh(shifted(ts[:, None, None]))[:, 0]
    edged = np.concatenate(([np.inf], vals, [np.inf]))
    lows = np.flatnonzero((vals <= edged[:-2]) & (vals <= edged[2:]))
    brackets = [(ts[max(i - 1, 0)], ts[min(i + 1, ts.size - 1)]) for i in lows]
    fits = [
        minimize_scalar(lam, bounds=b, method="bounded", options={"xatol": 1e-10})
        for b in brackets
    ]
    best = min(fits, key=lambda res: res.fun)
    c = np.linalg.eigh(shifted(best.x))[1][:, 0]
    if c[np.argmax(np.abs(c))] < 0:
        c = -c
    return float(variance_of_coeffs(c)), c


def table1(n_max: int = 4, m_max: int = 4, **kwargs) -> list[OptimumRecord]:
    """Optimal squeezing for every heralding cell n = 1..n_max, m = 0..m_max."""
    records = []
    for n in range(1, n_max + 1):
        for m in range(0, m_max + 1):
            records.append(optimize_cm_squeezing(n, m, **kwargs))
    return records


def table2(n_max: int = 6) -> list[Table2Row]:
    """Single-photon-herald optima against the unconstrained superposition optima."""
    rows = []
    for n in range(1, n_max + 1):
        rec = optimize_cm_squeezing(n, 1)
        fock_val, _ = optimize_fock_superposition(n)
        rows.append(Table2Row(n, rec.min_var, fock_val, rec.min_var - fock_val))
    return rows


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
