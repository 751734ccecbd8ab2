"""Closed-form displaced qudits from heralded beam-splitter interference.

A coherent state |alpha> meets a number state |n> on a beam splitter of
reflectivity R; a detector of efficiency eta_d (an ideal one behind a beam
splitter that transmits eta_d) counts m photons on the ancillary output.
Each source photon is lost independently with probability (1-eta_d) R, and
with l lost the signal mode is left in D(alpha sqrt R) sum_q u_l[q] |q>,

    u_l[q] = K a_l b_q g_{n-l-q},  K = sqrt(n!/m!) e^(-eta_d chi/2),  b_q = (1-R)^(q/2) / sqrt(q!),
    a_l = ((1-eta_d) R)^(l/2) / sqrt(l!),  g_k = (eta_d R)^(k/2) H_{k,m}(y*, y) / k!,

y = sqrt(eta_d) x, x = alpha sqrt(1-R), chi = |x|^2, H the two-variable
Hermite polynomial and u_l[q] = 0 for q > n-l; |u_l|^2 is the branch's
probability.  `herald_terms` is this one closed form, its factors kept as
logarithms: each amplitude is one exponential times a unit phase.  The ideal
displaced qudit (`build_dq`) is its eta_d = 1, l = 0 slice: A_q = u_0[q] /
sqrt(p), with p = sum_q |u_0[q]|^2 the heralding success probability.  The
parameter-space grids (`coefficients_grid`) take the same coefficients up
to a q-independent factor, C_q = C(n,q) sqrt(q!) ((1-R)/R)^(q/2) H_{n-q,m}(x*, x).
Laguerre-route evaluations of the C_q are an independent cross-check, and
root loci of single coefficients in chi are exact real roots of the
coefficient polynomials in alpha.  The squeezing and non-Gaussianity grids
share the `row_blocks`, the `normalized` coefficients and their
`bare_moment`s here.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from collections import namedtuple

import numpy as np

from . import fock
from .errors import NonFiniteResult, NoRootInBracket, TruncationTooSmall, ZeroProbability
from .polynomials import hermite2_rows, laguerre, laguerre_recurrence

__all__ = [
    "CMConfig",
    "DQState",
    "LocusTarget",
    "chi",
    "classify",
    "coefficient_laguerre",
    "coefficients_grid",
    "normalized",
    "bare_moment",
    "covariance_from_moments",
    "HeraldTerms",
    "herald_terms",
    "success_probability",
    "build_dq",
    "to_fock",
    "locus_solve",
]


class CMConfig(namedtuple("CMConfig", "n m alpha R")):
    """One heralding run: input |n>, detected m, coherent alpha, reflectivity R."""

    __slots__ = ()

    def __new__(cls, n: int, m: int, alpha: complex, R: float):
        if not isinstance(n, int) or n < 0:
            raise ValueError("n must be a non-negative integer")
        if not isinstance(m, int) or m < 0:
            raise ValueError("m must be a non-negative integer")
        if not 0.0 < R < 1.0:
            raise ValueError("R must lie strictly inside (0, 1)")
        a = complex(alpha)
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ValueError("alpha must be finite")
        return super().__new__(cls, n, m, alpha, R)


def chi(cfg: CMConfig) -> float:
    """Combined root parameter |alpha|^2 (1 - R)."""
    return abs(cfg.alpha) ** 2 * (1.0 - cfg.R)


def classify(n: int, m: int) -> str:
    """Detection class: "DQ+k" (k = n - m photons added), "DQ-k" (k = m - n subtracted) or "DQ"."""
    if m == n:
        return "DQ"
    return f"DQ{'+' if m < n else '-'}{abs(n - m)}"


class DQState(namedtuple("DQState", "displacement coeffs config")):
    """Displacement plus normalized superposition coefficients A_0..A_n."""

    __slots__ = ()

    def __new__(cls, displacement: complex, coeffs: np.ndarray, config: CMConfig | None = None):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coeffs must be a non-empty 1-d array")
        norm2 = float(np.vdot(coeffs, coeffs).real)
        if abs(norm2 - 1.0) > 1e-12:
            raise ValueError("coeffs must be normalized; use DQState.from_coeffs")
        return super().__new__(cls, displacement, coeffs, config)

    @classmethod
    def from_coeffs(cls, coeffs, displacement: complex = 0j, config: CMConfig | None = None):
        """Build a state from an arbitrary coefficient vector, normalizing it."""
        c = np.asarray(coeffs, dtype=complex)
        norm = math.sqrt(float(np.vdot(c, c).real))
        if norm < 1e-150:
            raise ZeroProbability("zero coefficient vector")
        return cls(complex(displacement), c / norm, config)


def _level_factor(n: int, q: int, ratio):
    """C(n,q) sqrt(q!) ratio^(q/2), the level factor of C_q at ratio = (1-R)/R.

    Where q! or C(n,q) sqrt(q!) no longer fits in a float (q >= 171), the
    same product is taken through log-gamma; it is inf where it overflows.
    """
    try:
        front = math.comb(n, q) * math.sqrt(math.factorial(q))
    except OverflowError:
        log_front = math.lgamma(n + 1) - math.lgamma(n - q + 1) - 0.5 * math.lgamma(q + 1)
        with np.errstate(over="ignore"):
            return np.exp(log_front + (q / 2.0) * np.log(ratio))
    return front * np.power(ratio, q / 2.0)


def coefficient_laguerre(cfg: CMConfig, q: int) -> complex:
    """Unnormalized coefficient of |q> via the Laguerre route (cross-check path).

    For m >= n the Laguerre order is n - q with upper index m - n + q; for
    m < n the order is pinned to the detected number m and the upper index
    n - m - q may go negative, which the generalized series handles.
    """
    if not 0 <= q <= cfg.n:
        raise ValueError(f"q={q} outside 0..{cfg.n}")
    n, m, R = cfg.n, cfg.m, cfg.R
    alpha = complex(cfg.alpha)
    sq = math.sqrt(1.0 - R)
    x2 = abs(alpha) ** 2 * (1.0 - R)
    base = _level_factor(n, q, (1.0 - R) / R)
    if m >= n:
        val = ((-1) ** (n - q) * math.factorial(n - q) * (alpha * sq) ** (m - n + q)
               * laguerre(n - q, m - n + q, x2))
    else:
        power = n - m - q
        if alpha == 0 and power < 0:
            return 0j
        val = ((-1) ** m * math.factorial(m) * (alpha.conjugate() * sq) ** power
               * laguerre(m, power, x2))
    return complex(base * val)


def coefficients_grid(n: int, m: int, alpha, R) -> np.ndarray:
    """Unnormalized coefficients over broadcast grids of alpha (real or complex) and R.

    Returns an array of shape (n + 1,) + broadcast(alpha, R).shape; the
    parameter-space scans pass real alpha grids; one state and its p come
    from `build_dq`.  Each C_q is _level_factor(n, q, ratio) * hermite2(n - q,
    m, conj(x), x) (`hermite2_rows`), elementwise, so a block of a grid
    gives the whole grid's values bit for bit; real x is not conjugated, and
    the level factors are taken on R's own shape before they broadcast.
    Numpy scalar arguments stay numpy scalars, whose ``**`` rounds
    differently from numpy's array power loop.  Raises NonFiniteResult
    where the factor k! of a Hermite row, k = min(n - q, m), does not fit in
    a float (k >= 171).
    """
    alpha, R = np.asarray(alpha), np.asarray(R, float)
    x = alpha * np.sqrt(1.0 - R)
    ratio = (1.0 - R) / R
    try:
        rows = hermite2_rows(n, m, np.conj(x) if np.iscomplexobj(x) else x, x)
    except OverflowError:
        raise NonFiniteResult(f"Hermite coefficients of H_(n-q,{m}) overflow for n={n}") from None
    out = np.empty((n + 1,) + np.shape(x), dtype=np.result_type(x, ratio))
    for q, h in enumerate(rows):
        out[q] = _level_factor(n, q, ratio) * h
    return out


# Grid kernels run in row blocks of about this many cells (32 kB per float64 temporary), so
# peak memory does not grow with the grid; against 2^14 blocks, table1 and table2 peak 1.6 and
# 0.9 MB lower at the same fresh-process run time (README, "Grid kernels").
BLOCK_CELLS = 2**12


def row_blocks(shape: tuple) -> list[tuple[int, int]]:
    """(start, stop) ranges of the leading axis of shape, about BLOCK_CELLS cells each; a last
    block of one cell, whose levels numpy would sum pairwise, joins the block before it."""
    rows = max(1, BLOCK_CELLS // max(1, math.prod(shape[1:])))
    single = shape[0] > rows and shape[0] % rows == 1 == math.prod(shape[1:])
    starts = list(range(0, shape[0] - single, rows))
    return list(zip(starts, starts[1:] + [shape[0]]))


def normalized(c: np.ndarray) -> np.ndarray:
    """c / sqrt(sum_q |c_q|^2) along the leading axis; NaN where that norm is 0 or not finite."""
    s = np.sum(np.abs(c) ** 2, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where((s > 0) & (s < np.inf), c / np.sqrt(s), np.nan)


def bare_moment(c, u: int, v: int) -> np.ndarray:
    """Normally ordered moment <a^dag^u a^v> of the bare superposition sum_q c_q |q>.

    Coefficients run along the leading axis of c; trailing axes are batch
    axes.  <j| a^dag^u a^v |q> = sqrt(q!/k! j!/k!) with k = q - v = j - u;
    the sum runs level by level over k = 0..n - max(u, v), so scan grids
    need no (n + 1)-fold temporaries.
    """
    c = np.asarray(c)
    conj = np.conj if np.iscomplexobj(c) else (lambda z: z)
    total = np.zeros(c.shape[1:], dtype=c.dtype)
    for i, j, w in _moment_terms(c.shape[0], u, v):
        total = total + conj(c[i]) * c[j] * w
    return total


@functools.lru_cache(maxsize=None)
def _moment_terms(levels: int, u: int, v: int) -> tuple:
    """(i, j, w) of <a^dag^u a^v> = sum_k conj(c_i) c_j w, i = k + u, j = k + v, in order."""
    return tuple((k + u, k + v, math.sqrt(math.perm(k + v, v) * math.perm(k + u, u)))
                 for k in range(levels - max(u, v)))


def covariance_from_moments(a1: complex, a2: complex, n1: float) -> tuple[float, float, float]:
    """(Var X, Var P, Cov XP) from <a>, <a^2> and <a^dag a>."""
    central = a2 - a1 * a1
    spread = n1 - abs(a1) ** 2
    return central.real + spread + 0.5, -central.real + spread + 0.5, central.imag


# log_a[i, l], log_b[q], log_g[i, k] = log |a_l|, log |b_q|, log |K g_k| at eta_d[i]; phase[i, k]
# the unit factor of K g_k; at n = 0, |u_0[0]|^2 = e^(2 log_g[i, 0]) = Poisson(eta_d[i] chi; m)
HeraldTerms = namedtuple("HeraldTerms", "cfg eta_d log_a log_b log_g phase")

_TINY = sys.float_info.min  # the smallest normal float


def herald_terms(cfg: CMConfig, eta_d_values) -> HeraldTerms:
    """The factors of u_l[q] (module docstring) as logarithms per eta_d, for the input |n>.

    H_{k,m}(y*, y) = (-1)^j j! y^d L_j^(d)(|y|^2), j = min(k, m), d = |k - m|, so K g_k = e^(f_k)
    (-1)^j (y/|y|)^d L_j^(d), conjugated for k > m: f_k, the log of K j!/k! |y|^d (eta_d R)^(k/2),
    and log |L| (L from `laguerre_recurrence`) sum to log_g, and the phase is (-1)^j sign(L)
    times y/|y| = alpha/|alpha|, real for real alpha.  Each amplitude is the one exponential
    exp(log_a + log_b + log_g) times its phase: |u_l[q]| <= sqrt(p) <= 1, so none overflows, and
    one that underflows lies below p's rounding unless p is below the normal range too.  A log is
    -inf only for an exact 0.  NonFiniteResult where L overflows."""
    n, m, R = cfg.n, cfg.m, cfg.R
    where = f"n={n}, m={m}, alpha={cfg.alpha}, R={R}"
    eta_d = np.atleast_1d(np.asarray(eta_d_values, float))
    level = np.arange(n + 1)
    log_fact = np.array([math.lgamma(j + 1) for j in range(n + 1)])
    alpha = complex(cfg.alpha)
    y = np.sqrt(eta_d) * abs(alpha) * math.sqrt(1.0 - R)  # |y|
    j, d = np.minimum(level, m), np.abs(level - m)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lag, z = np.empty((eta_d.size, n + 1)), y**2
        for k in range(n + 1):
            lag[:, k] = laguerre_recurrence(min(k, m), abs(k - m), z)
        if not np.isfinite(lag).all():
            raise NonFiniteResult(f"the Laguerre factors L_j^(d) of the C_q overflow for {where}")
        log_a = np.where(level == 0, 0.0, level / 2 * np.log((1.0 - eta_d[:, None]) * R))
        log_k = 0.5 * (math.lgamma(n + 1) - math.lgamma(m + 1) - eta_d[:, None] * chi(cfg))
        log_y = np.where(d == 0, 0.0, d * np.log(y[:, None]))  # log |y|^d
        log_g = (log_k - log_fact + log_fact[j] + log_y
                 + np.where(level == 0, 0.0, level / 2 * np.log(eta_d[:, None] * R))
                 + np.log(np.abs(lag)))
    unit = alpha / abs(alpha) if alpha.imag else np.sign(alpha.real)  # y/|y|
    phase = np.where(level > m, np.conj(unit), unit) ** d * (-1.0) ** j * np.sign(lag)
    log_b = level / 2 * math.log(1.0 - R) - 0.5 * log_fact
    return HeraldTerms(cfg, eta_d, log_a - 0.5 * log_fact, log_b, log_g, phase)


def success_probability(cfg: CMConfig) -> float:
    """Ideal heralding probability p of the (n, m, alpha, R) run; 0 where build_dq finds none."""
    try:
        return build_dq(cfg)[1]
    except ZeroProbability:
        return 0.0


def build_dq(cfg: CMConfig) -> tuple[DQState, float]:
    """Closed-form displaced qudit and its ideal success probability p = sum_q |u_0[q]|^2: the
    eta_d = 1 slice u_0[q] = b_q (K g)_{n-q} of `herald_terms`, one exponential per level times
    its phase, one (n + 1)-vector.  Raises
    what herald_terms raises, and ZeroProbability where p is below the normal float range."""
    terms = herald_terms(cfg, [1.0])
    u = np.exp(terms.log_b + terms.log_g[0, ::-1]) * terms.phase[0, ::-1]
    prob = float(np.vdot(u, u).real)
    if not prob >= _TINY:
        why = ("all coefficients vanish" if cfg.alpha == 0 and cfg.m > cfg.n
               else "success probability underflows the float range")
        raise ZeroProbability(f"{why} for n={cfg.n}, m={cfg.m}, alpha={cfg.alpha}, R={cfg.R}")
    return DQState(complex(cfg.alpha) * math.sqrt(cfg.R), u / math.sqrt(prob), cfg), prob


def to_fock(state: DQState, t: fock.Truncation) -> fock.FockVector:
    """Expand the displaced qudit in the truncated number basis."""
    k = state.coeffs.size
    if t.dim < k:
        raise TruncationTooSmall(f"dim={t.dim} cannot hold {k} superposition levels")
    padded = np.zeros(t.dim, dtype=complex)
    padded[:k] = state.coeffs
    D = fock.displacement_matrix(state.displacement, t)
    return fock.FockVector(D @ padded)


class LocusTarget(enum.Enum):
    COEFFICIENT_ZERO = "coefficient-zero"
    EQUAL_SUPERPOSITION = "equal-superposition"


def locus_solve(n: int, m: int, q: int, target: LocusTarget, R: float,
                alpha_max: float = 12.0) -> list[float]:
    """Real alpha > 0 values at fixed R where a coefficient condition holds.

    COEFFICIENT_ZERO finds roots of C_q(alpha); EQUAL_SUPERPOSITION finds
    crossings |C_q| = |C_{q+1}| of adjacent coefficients, which for real
    alpha are the roots of C_q - C_{q+1} and C_q + C_{q+1}.  At fixed R each
    C_q is a polynomial in alpha, so the loci are its real roots in
    (0, alpha_max], ascending.
    """
    if target is LocusTarget.EQUAL_SUPERPOSITION and q + 1 > n:
        raise ValueError("equal-superposition target needs the pair (q, q+1) within 0..n")
    x = np.polynomial.Polynomial([0.0, math.sqrt(1.0 - R)])
    ratio = (1.0 - R) / R

    rows = hermite2_rows(n, m, x, x)

    def c(k: int) -> np.polynomial.Polynomial:
        return _level_factor(n, k, ratio) * rows[k]

    if target is LocusTarget.COEFFICIENT_ZERO:
        polys = [c(q)]
    else:
        polys = [c(q) - c(q + 1), c(q) + c(q + 1)]
    roots = np.concatenate([p.roots() for p in polys])
    real = roots.real[np.abs(roots.imag) <= 1e-9 * np.maximum(1.0, np.abs(roots))]
    found = sorted(float(r) for r in real if 0.0 < r <= alpha_max)
    if not found:
        raise NoRootInBracket(
            f"no root of {target.value} for (n={n}, m={m}, q={q}) with alpha in (0, {alpha_max}]"
        )
    return found
