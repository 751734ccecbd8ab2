"""Closed-form displaced qudits from heralded beam-splitter interference.

A coherent state |alpha> meets a number state |n> on a beam splitter of
reflectivity R; detecting m photons on the ancillary output leaves the
signal mode in a displaced finite superposition

    |psi> = D(alpha sqrt(R)) sum_{q=0}^{n} A_q |q>.

The unnormalized coefficient of |q> is

    C_q = C(n,q) sqrt(q!) ((1-R)/R)^(q/2) H_{n-q,m}(x, x),   x = alpha sqrt(1-R),

with H the two-variable Hermite polynomial, and the heralding success
probability is

    S_p = R^n / (m! n!) exp(-|alpha|^2 (1-R)) sum_q |C_q|^2.

Laguerre-route evaluations of the same coefficients are provided as an
independent cross-check, together with root loci of individual
coefficients in the combined parameter chi = |alpha|^2 (1-R).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import fock
from .errors import NoRootInBracket, TruncationTooSmall, ZeroProbability
from .polynomials import hermite2, laguerre

__all__ = [
    "CMConfig",
    "DQState",
    "DQKind",
    "DQClass",
    "LocusTarget",
    "chi",
    "classify",
    "coefficient",
    "coefficient_laguerre",
    "raw_coefficients",
    "coefficients_grid",
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


class DQKind(enum.Enum):
    PHOTON_ADDED = "added"
    PHOTON_SUBTRACTED = "subtracted"
    CATALYZED = "catalyzed"


@dataclass(frozen=True)
class DQClass:
    """Detection class: m photons added (m < n), subtracted (m > n), or catalyzed."""

    kind: DQKind
    k: int

    @property
    def label(self) -> str:
        if self.kind is DQKind.CATALYZED:
            return "DQ"
        sign = "+" if self.kind is DQKind.PHOTON_ADDED else "-"
        return f"DQ{sign}{self.k}"


def classify(n: int, m: int) -> DQClass:
    if m < n:
        return DQClass(DQKind.PHOTON_ADDED, n - m)
    if m > n:
        return DQClass(DQKind.PHOTON_SUBTRACTED, m - n)
    return DQClass(DQKind.CATALYZED, 0)


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

    @property
    def n_levels(self) -> int:
        return self.coeffs.size


def _check_q(cfg: CMConfig, q: int) -> None:
    if not 0 <= q <= cfg.n:
        raise ValueError(f"q={q} outside 0..{cfg.n}")


def coefficient(cfg: CMConfig, q: int) -> complex:
    """Unnormalized coefficient of |q> via the Hermite route (canonical path)."""
    _check_q(cfg, q)
    x = cfg.alpha * math.sqrt(1.0 - cfg.R)
    scale = (
        math.comb(cfg.n, q)
        * math.sqrt(math.factorial(q))
        * ((1.0 - cfg.R) / cfg.R) ** (q / 2.0)
    )
    return complex(scale * hermite2(cfg.n - q, cfg.m, x, x))


def coefficient_laguerre(cfg: CMConfig, q: int) -> complex:
    """Unnormalized coefficient of |q> via the Laguerre route (cross-check path).

    For m >= n the Laguerre order is n - q with upper index m - n + q; for
    m < n the order is pinned to the detected number m and the upper index
    n - m - q may go negative, which the generalized series handles.
    """
    _check_q(cfg, q)
    n, m, R = cfg.n, cfg.m, cfg.R
    alpha = complex(cfg.alpha)
    sq = math.sqrt(1.0 - R)
    x2 = abs(alpha) ** 2 * (1.0 - R)
    base = math.comb(n, q) * math.sqrt(math.factorial(q)) * ((1.0 - R) / R) ** (q / 2.0)
    if m >= n:
        val = (
            (-1) ** (n - q)
            * math.factorial(n - q)
            * (np.conj(alpha) * sq) ** (m - n + q)
            * laguerre(n - q, m - n + q, x2)
        )
    else:
        power = n - m - q
        if alpha == 0 and power < 0:
            return 0j
        val = (
            (-1) ** m
            * math.factorial(m)
            * (alpha * sq) ** power
            * laguerre(m, power, x2)
        )
    return complex(base * val)


def raw_coefficients(cfg: CMConfig) -> np.ndarray:
    """All unnormalized coefficients C_0..C_n (Hermite route)."""
    return np.array([coefficient(cfg, q) for q in range(cfg.n + 1)], dtype=complex)


def coefficients_grid(n: int, m: int, alpha, R) -> np.ndarray:
    """Unnormalized coefficients over broadcast real grids of alpha and R.

    Returns an array of shape (n + 1,) + broadcast(alpha, R).shape; used by
    the parameter-space scans, which all work at real alpha.
    """
    alpha_b, R_b = np.broadcast_arrays(np.asarray(alpha, float), np.asarray(R, float))
    x = alpha_b * np.sqrt(1.0 - R_b)
    ratio = (1.0 - R_b) / R_b
    rows = []
    for q in range(n + 1):
        scale = math.comb(n, q) * math.sqrt(math.factorial(q))
        rows.append(scale * np.power(ratio, q / 2.0) * hermite2(n - q, m, x, x))
    return np.stack([np.broadcast_to(r, alpha_b.shape) for r in rows])


def _herald_prefactor(cfg: CMConfig) -> float:
    """R^n / (m! n!) exp(-|alpha|^2 (1 - R)), the success probability per unit sum_q |C_q|^2."""
    pref = cfg.R ** cfg.n / (math.factorial(cfg.m) * math.factorial(cfg.n))
    return pref * math.exp(-abs(cfg.alpha) ** 2 * (1.0 - cfg.R))


def success_probability(cfg: CMConfig) -> float:
    """Ideal heralding probability of the (n, m, alpha, R) run."""
    c = raw_coefficients(cfg)
    return _herald_prefactor(cfg) * float(np.vdot(c, c).real)


def build_dq(cfg: CMConfig) -> tuple[DQState, float]:
    """Closed-form displaced qudit and its ideal success probability."""
    c = raw_coefficients(cfg)
    s = float(np.vdot(c, c).real)
    if not math.isfinite(s) or s < 1e-300:
        raise ZeroProbability(
            f"all coefficients vanish for n={cfg.n}, m={cfg.m}, alpha={cfg.alpha}"
        )
    state = DQState(
        displacement=complex(cfg.alpha) * math.sqrt(cfg.R),
        coeffs=c / math.sqrt(s),
        config=cfg,
    )
    return state, _herald_prefactor(cfg) * s


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
    samples: int = 4800,
    tol: float = 1e-10,
) -> list[float]:
    """Real alpha > 0 values at fixed R where a coefficient condition holds.

    COEFFICIENT_ZERO finds roots of C_q(alpha); EQUAL_SUPERPOSITION finds
    crossings |C_q| = |C_{q+1}| of adjacent coefficients.  Roots come from
    bisection on sign changes over alpha in (0, alpha_max].
    """
    if target is LocusTarget.EQUAL_SUPERPOSITION and q + 1 > n:
        raise ValueError("equal-superposition target needs the pair (q, q+1) within 0..n")

    def f(alpha_vals: np.ndarray) -> np.ndarray:
        c = coefficients_grid(n, m, alpha_vals, R)
        if target is LocusTarget.COEFFICIENT_ZERO:
            return c[q]
        return np.abs(c[q]) - np.abs(c[q + 1])

    grid = np.linspace(alpha_max / samples, alpha_max, samples)
    vals = f(grid)
    roots: list[float] = []
    for i in range(len(grid) - 1):
        lo, hi = grid[i], grid[i + 1]
        flo, fhi = vals[i], vals[i + 1]
        if flo == 0.0:
            roots.append(float(lo))
            continue
        if flo * fhi >= 0.0:
            continue
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            fmid = float(f(np.array([mid]))[0])
            if fmid == 0.0:
                lo = hi = mid
                break
            if flo * fmid < 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
        roots.append(0.5 * (lo + hi))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    if not roots:
        raise NoRootInBracket(
            f"no root of {target.value} for (n={n}, m={m}, q={q}) with alpha in (0, {alpha_max}]"
        )
    deduped: list[float] = []
    for r_ in roots:
        if not deduped or abs(r_ - deduped[-1]) > 10 * tol:
            deduped.append(r_)
    return deduped
