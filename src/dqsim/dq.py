"""Closed-form displaced qudits from heralded beam-splitter interference.

A coherent state |alpha> meets a number state |n> on a beam splitter of
reflectivity R; detecting m photons on the ancillary output leaves the
signal mode in a displaced finite superposition

    |psi> = D(alpha sqrt(R)) sum_{q=0}^{n} A_q |q>.

The unnormalized coefficient of |q> is

    C_q = C(n,q) sqrt(q!) ((1-R)/R)^(q/2) H_{n-q,m}(x*, x),   x = alpha sqrt(1-R),

with H the two-variable Hermite polynomial (H_{n-q,m}(x, x) for real
alpha; the conjugate keeps the phase of a complex alpha exact), and the
heralding success probability is

    S_p = R^n / (m! n!) exp(-|alpha|^2 (1-R)) sum_q |C_q|^2.

Laguerre-route evaluations of the same coefficients are provided as an
independent cross-check, together with root loci of individual
coefficients in the combined parameter chi = |alpha|^2 (1-R), found as
exact real roots of the coefficient polynomials in alpha.  The squeezing and
non-Gaussianity grids share the `row_blocks`, the `normalized` coefficients
and their `bare_moment`s here.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import fock
from .errors import NonFiniteResult, NoRootInBracket, TruncationTooSmall, ZeroProbability
from .polynomials import hermite2_rows, laguerre

__all__ = [
    "CMConfig",
    "DQState",
    "LocusTarget",
    "chi",
    "classify",
    "coefficient_laguerre",
    "raw_coefficients",
    "coefficients_grid",
    "normalized",
    "bare_moment",
    "covariance_from_moments",
    "success_probability",
    "build_dq",
    "to_fock",
    "locus_solve",
]


@dataclass(frozen=True)
class CMConfig:
    """One heralding run: input |n>, detected m, coherent alpha, reflectivity R."""

    n: int
    m: int
    alpha: complex
    R: float

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError("n must be a non-negative integer")
        if not isinstance(self.m, int) or self.m < 0:
            raise ValueError("m must be a non-negative integer")
        if not 0.0 < self.R < 1.0:
            raise ValueError("R must lie strictly inside (0, 1)")
        a = complex(self.alpha)
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ValueError("alpha must be finite")


def chi(cfg: CMConfig) -> float:
    """Combined root parameter |alpha|^2 (1 - R)."""
    return abs(cfg.alpha) ** 2 * (1.0 - cfg.R)


def classify(n: int, m: int) -> str:
    """Detection class: "DQ+k" (k = n - m photons added), "DQ-k" (k = m - n subtracted) or "DQ"."""
    if m == n:
        return "DQ"
    return f"DQ{'+' if m < n else '-'}{abs(n - m)}"


@dataclass
class DQState:
    """Displacement plus normalized superposition coefficients A_0..A_n."""

    displacement: complex
    coeffs: np.ndarray
    config: CMConfig | None = field(default=None)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise ValueError("coeffs must be a non-empty 1-d array")
        norm2 = float(np.vdot(self.coeffs, self.coeffs).real)
        if abs(norm2 - 1.0) > 1e-12:
            raise ValueError("coeffs must be normalized; use DQState.from_coeffs")

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
        val = (
            (-1) ** (n - q)
            * math.factorial(n - q)
            * (alpha * sq) ** (m - n + q)
            * laguerre(n - q, m - n + q, x2)
        )
    else:
        power = n - m - q
        if alpha == 0 and power < 0:
            return 0j
        val = (
            (-1) ** m
            * math.factorial(m)
            * (alpha.conjugate() * sq) ** power
            * laguerre(m, power, x2)
        )
    return complex(base * val)


def raw_coefficients(cfg: CMConfig) -> np.ndarray:
    """All unnormalized coefficients C_0..C_n (Hermite route)."""
    return coefficients_grid(cfg.n, cfg.m, complex(cfg.alpha), cfg.R)


def coefficients_grid(n: int, m: int, alpha, R) -> np.ndarray:
    """Unnormalized coefficients over broadcast grids of alpha (real or complex) and R.

    Returns an array of shape (n + 1,) + broadcast(alpha, R).shape; the
    parameter-space scans pass real alpha grids, raw_coefficients one
    complex alpha.  Each C_q is _level_factor(n, q, ratio) * hermite2(n - q,
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


def _herald_prefactor(cfg: CMConfig) -> float:
    """R^n / (m! n!) exp(-|alpha|^2 (1 - R)), the success probability per unit sum_q |C_q|^2.

    Evaluated in log space, so m! n! never has to fit in a float.
    """
    log_pref = (
        cfg.n * math.log(cfg.R)
        - math.lgamma(cfg.m + 1)
        - math.lgamma(cfg.n + 1)
        - abs(cfg.alpha) ** 2 * (1.0 - cfg.R)
    )
    return math.exp(log_pref)


def success_probability(cfg: CMConfig) -> float:
    """Ideal heralding probability of the (n, m, alpha, R) run; 0 where build_dq finds none."""
    try:
        return build_dq(cfg)[1]
    except ZeroProbability:
        return 0.0


def build_dq(cfg: CMConfig) -> tuple[DQState, float]:
    """Closed-form displaced qudit and its ideal success probability.

    Raises NonFiniteResult if the C_q or sum_q |C_q|^2 overflow and
    ZeroProbability if the sum vanishes or the success probability
    underflows to 0.
    """
    where = f"n={cfg.n}, m={cfg.m}, alpha={cfg.alpha}, R={cfg.R}"
    with np.errstate(over="ignore", invalid="ignore"):
        c = raw_coefficients(cfg)
    if not np.all(np.isfinite(c)):
        raise NonFiniteResult(f"coefficients C_q overflow for {where}")
    s = float(np.vdot(c, c).real)
    if not math.isfinite(s):
        raise NonFiniteResult(f"coefficient norm sum_q |C_q|^2 overflows for {where}")
    if s < 1e-300:
        raise ZeroProbability(f"all coefficients vanish for {where}")
    prob = _herald_prefactor(cfg) * s
    if prob == 0.0:
        raise ZeroProbability(f"success probability underflows to 0 for {where}")
    state = DQState(
        displacement=complex(cfg.alpha) * math.sqrt(cfg.R),
        coeffs=c / math.sqrt(s),
        config=cfg,
    )
    return state, prob


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


def locus_solve(
    n: int,
    m: int,
    q: int,
    target: LocusTarget,
    R: float,
    alpha_max: float = 12.0,
) -> list[float]:
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
