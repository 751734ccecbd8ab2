"""Non-Gaussianity quantifiers: Hilbert-Schmidt distance and Wigner negativity.

The Hilbert-Schmidt measure compares a state rho with the displaced
squeezed thermal reference tau = D(gamma) S(zeta) nu(nbar) S^dag D^dag
whose first and second moments match those of rho:

    delta[rho] = Tr[(rho - tau)^2] / (2 Tr(rho^2)),   0 <= delta <= 1/2.

Wigner functions use the convention integral W d(Re beta) d(Im beta) = 1,
so a coherent state peaks at 2/pi.  The closed form for displaced qudits
factors into Gaussian times a finite positive/negative Hermite sum; a
displaced-parity evaluation in the truncated basis serves as the
independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson
from scipy.linalg import expm
from scipy.optimize import minimize

from . import dq, fock
from .errors import GridTooCoarse, NonPhysicalCovariance
from .squeezing import bare_moment, covariance_from_moments

__all__ = [
    "GaussianRef",
    "PhaseGrid",
    "match_reference",
    "gaussian_density",
    "hsd",
    "hsd_of_coeffs",
    "hsd_scan",
    "hsd_max",
    "wigner_closed",
    "wigner_oracle",
    "wigner_oracle_grid",
    "default_grid",
    "wigner_negativity",
]


@dataclass(frozen=True)
class GaussianRef:
    """Displaced squeezed thermal state parameters (gamma, r e^{i phi}, nbar)."""

    gamma: complex
    r: float
    phi: float
    nbar: float

    def covariance(self) -> np.ndarray:
        """Quadrature covariance matrix in (X, P) with vacuum = I/2."""
        c2r = math.cosh(2.0 * self.r)
        s2r = math.sinh(2.0 * self.r)
        scale = 0.5 * (2.0 * self.nbar + 1.0)
        return scale * np.array(
            [
                [c2r + s2r * math.cos(self.phi), s2r * math.sin(self.phi)],
                [s2r * math.sin(self.phi), c2r - s2r * math.cos(self.phi)],
            ]
        )


@dataclass
class PhaseGrid:
    """Rectangular grid over beta = x + i p (x = Re beta, p = Im beta)."""

    xs: np.ndarray
    ps: np.ndarray
    values: np.ndarray | None = field(default=None)

    @classmethod
    def centered(cls, center: complex, half_width: float, points: int = 201) -> "PhaseGrid":
        if points % 2 == 0 or (points - 1) % 4 != 0:
            raise ValueError("points must be of the form 4k + 1 (e.g. 201, 401)")
        xs = np.linspace(center.real - half_width, center.real + half_width, points)
        ps = np.linspace(center.imag - half_width, center.imag + half_width, points)
        return cls(xs, ps)

    def mesh(self) -> np.ndarray:
        return self.xs[:, None] + 1j * self.ps[None, :]


def default_grid(state: dq.DQState, points: int = 201) -> PhaseGrid:
    """Grid centered on the displacement, wide enough for the qudit support."""
    n_max = state.coeffs.size - 1
    half = max(5.0, abs(state.displacement) + 5.0 * math.sqrt(max(n_max, 1)))
    return PhaseGrid.centered(complex(state.displacement), half, points)


# ---------------------------------------------------------------------------
# moment matching and the Hilbert-Schmidt measure


def _moments_from_density(rho: fock.DensityMatrix) -> tuple[complex, complex, float]:
    t = fock.Truncation(rho.dim)
    a = fock.annihilation_matrix(t)
    a1 = complex(np.trace(rho.mat @ a))
    a2 = complex(np.trace(rho.mat @ (a @ a)))
    n1 = float(np.trace(rho.mat @ (a.conj().T @ a)).real)
    return a1, a2, n1


def _ref_from_moments(a1: complex, a2: complex, n1: float) -> GaussianRef:
    sxx, spp, sxp = covariance_from_moments(a1, a2, n1)
    det = sxx * spp - sxp * sxp
    if det < 0.25 - 1e-9:
        raise NonPhysicalCovariance(f"det(sigma) = {det:.6e} < 1/4")
    root = math.sqrt(max(det, 0.25))
    nbar = root - 0.5
    sc = (sxx - spp) / (2.0 * root)
    ss = sxp / root
    sinh2r = math.hypot(sc, ss)
    r = 0.5 * math.asinh(sinh2r)
    phi = math.atan2(ss, sc) if sinh2r > 1e-12 else 0.0
    return GaussianRef(a1, r, phi, max(nbar, 0.0))


def match_reference(rho: fock.DensityMatrix) -> GaussianRef:
    """Reference-state parameters from the first and second moments of rho."""
    return _ref_from_moments(*_moments_from_density(rho))


def gaussian_density(ref: GaussianRef, t: fock.Truncation) -> fock.DensityMatrix:
    """Displaced squeezed thermal state D S nu S^dag D^dag in the truncated basis."""
    D = fock.displacement_matrix(ref.gamma, t)
    S = fock.squeeze_matrix(ref.r, ref.phi, t)
    nu = fock.thermal_density(ref.nbar, t).mat
    core = S @ nu @ S.conj().T
    tau = D @ core @ D.conj().T
    return fock.DensityMatrix(0.5 * (tau + tau.conj().T))


def hsd(rho: fock.DensityMatrix) -> float:
    """Hilbert-Schmidt non-Gaussianity of rho against its matched reference."""
    ref = match_reference(rho)
    tau = gaussian_density(ref, fock.Truncation(rho.dim))
    diff = rho.mat - tau.mat
    num = float(np.trace(diff @ diff).real)
    den = 2.0 * float(np.trace(rho.mat @ rho.mat).real)
    return num / den


def _apply_displacement_dag(beta: complex, v: np.ndarray) -> np.ndarray:
    """D(beta)^dag v by scaled Taylor steps on the banded generator."""
    return _banded_exp_apply(-beta, 0j, v)


def _apply_squeeze_dag(zeta: complex, v: np.ndarray) -> np.ndarray:
    """S(zeta)^dag v by scaled Taylor steps on the banded generator."""
    return _banded_exp_apply(0j, -zeta, v)


def _banded_exp_apply(beta: complex, zeta: complex, v: np.ndarray) -> np.ndarray:
    """exp(beta a^dag - beta* a + (zeta a^dag^2 - zeta* a^2)/2) applied to v.

    The generator only couples neighbors one or two levels apart, so each
    matrix-vector product is a pair of shifted slice operations; the norm
    is brought below ~1 by the usual power-of-two scaling and each substep
    is summed to machine precision.
    """
    dim = v.size
    sq1 = np.sqrt(np.arange(1.0, dim))
    sq2 = sq1[:-1] * sq1[1:] if dim > 2 else np.zeros(0)

    def matvec(u):
        out = np.zeros_like(u)
        if beta != 0:
            out[:-1] += (-np.conj(beta)) * sq1 * u[1:]
            out[1:] += beta * sq1 * u[:-1]
        if zeta != 0 and dim > 2:
            out[:-2] += (-0.5 * np.conj(zeta)) * sq2 * u[2:]
            out[2:] += (0.5 * zeta) * sq2 * u[:-2]
        return out

    norm_bound = 2.0 * abs(beta) * math.sqrt(dim) + abs(zeta) * dim
    steps = max(1, 1 << max(0, math.ceil(math.log2(max(norm_bound, 1e-12)))))
    acc = v.astype(complex)
    for _ in range(steps):
        term = acc
        total = acc.copy()
        for order in range(1, 40):
            term = matvec(term) / (order * steps)
            total += term
            if float(np.vdot(term, term).real) < 1e-34:
                break
        acc = total
    return acc


def hsd_of_coeffs(coeffs: np.ndarray, dim: int | None = None) -> float:
    """Hilbert-Schmidt measure of the bare superposition sum c_q |q>.

    Displacement drops out of the measure because the matched reference
    co-displaces, so parameter scans work on the undisplaced qudit.  Uses
    Tr(tau^2) = 1/(2 nbar + 1) and Tr(rho tau) = sum_k nu_k |w_k|^2 with
    w = S^dag D^dag phi; the cutoff is grown until both the thermal tail
    and the content of w near the cutoff are negligible.
    """
    c = np.asarray(coeffs, dtype=complex)
    c = c / math.sqrt(float(np.vdot(c, c).real))
    ref = _ref_from_moments(bare_moment(c, 0, 1), bare_moment(c, 0, 2), bare_moment(c, 1, 1).real)
    zeta = ref.r * np.exp(1j * ref.phi)
    if dim is None:
        spread = c.size + abs(ref.gamma) ** 2 + 7.0 * abs(ref.gamma) + 12.0
        dim = max(32, int(math.ceil(math.exp(2.0 * ref.r) * spread)))
        if ref.nbar > 1e-6:
            ratio = ref.nbar / (1.0 + ref.nbar)
            dim = max(dim, int(math.ceil(-26.0 / math.log(ratio))) + 4)
    for _ in range(6):
        padded = np.zeros(dim, dtype=complex)
        padded[: c.size] = c
        w = _apply_squeeze_dag(zeta, _apply_displacement_dag(ref.gamma, padded))
        if float(np.sum(np.abs(w[-4:]) ** 2)) < 1e-14:
            break
        dim *= 2
    prob = np.abs(w) ** 2
    if ref.nbar > 1e-12:
        ratio = ref.nbar / (1.0 + ref.nbar)
        nu = ratio ** np.arange(dim) / (1.0 + ref.nbar)
    else:
        nu = np.zeros(dim)
        nu[0] = 1.0
    tr_rho_tau = float(np.sum(nu * prob))
    tr_tau2 = 1.0 / (2.0 * ref.nbar + 1.0)
    return 0.5 * (1.0 - 2.0 * tr_rho_tau + tr_tau2)


def hsd_scan(n: int, m: int, alpha_sq_values, R_values, dim: int | None = None) -> np.ndarray:
    """delta over a rectangular (|alpha|^2, R) grid, shape (len(a), len(R))."""
    a_vals = np.asarray(alpha_sq_values, float)
    r_vals = np.asarray(R_values, float)
    out = np.empty((a_vals.size, r_vals.size))
    for i, a2 in enumerate(a_vals):
        coeffs = dq.coefficients_grid(n, m, math.sqrt(a2), r_vals)
        for j in range(r_vals.size):
            out[i, j] = hsd_of_coeffs(coeffs[:, j], dim=dim)
    return out


def hsd_max(
    n: int,
    m: int,
    alpha_sq_range: tuple[float, float] = (0.05, 16.0),
    R_range: tuple[float, float] = (0.05, 0.95),
    alpha_sq_step: float = 0.25,
    R_step: float = 0.015,
) -> tuple[float, float, float, bool]:
    """Maximal delta over the box; returns (value, alpha_sq, R, on_boundary)."""
    a_vals = np.arange(alpha_sq_range[0], alpha_sq_range[1] + alpha_sq_step / 2, alpha_sq_step)
    r_vals = np.arange(R_range[0], R_range[1] + R_step / 2, R_step)
    grid = hsd_scan(n, m, a_vals, r_vals)
    ia, ir = np.unravel_index(np.argmax(grid), grid.shape)

    def objective(p):
        a2, r = p
        a2 = min(max(a2, alpha_sq_range[0]), alpha_sq_range[1])
        r = min(max(r, R_range[0]), R_range[1])
        c = dq.coefficients_grid(n, m, math.sqrt(a2), r)
        return -hsd_of_coeffs(c)

    res = minimize(
        objective,
        x0=np.array([a_vals[ia], r_vals[ir]]),
        method="Nelder-Mead",
        options={"xatol": 1e-5, "fatol": 1e-9, "maxiter": 2000},
    )
    best = -float(res.fun)
    a_best = float(min(max(res.x[0], alpha_sq_range[0]), alpha_sq_range[1]))
    r_best = float(min(max(res.x[1], R_range[0]), R_range[1]))
    if best < float(grid[ia, ir]):
        best, a_best, r_best = float(grid[ia, ir]), float(a_vals[ia]), float(r_vals[ir])
    on_boundary = (
        a_best - alpha_sq_range[0] < alpha_sq_step
        or alpha_sq_range[1] - a_best < alpha_sq_step
        or r_best - R_range[0] < R_step
        or R_range[1] - r_best < R_step
    )
    return best, a_best, r_best, on_boundary


# ---------------------------------------------------------------------------
# Wigner functions


def wigner_closed(state: dq.DQState, beta):
    """Closed-form Wigner function of a displaced qudit at beta (scalar or array).

    With g the displacement, A = g - 2 beta and the reduced coefficients
    d_u = sum_p A_p (-1)^p C(p,u) conj(g)^(p-u) / sqrt(p!), the function is

        W(beta) = (2/pi) exp(-2|beta - g|^2)
                  sum_k (-1)^k k! | sum_{u>=k} C(u,k) d_u conj(A)^(u-k) |^2,

    which reduces to the familiar Gaussian for a bare coherent state and is
    checked pointwise against the displaced-parity reference.
    """
    A = state.coeffs
    n = A.size - 1
    g = complex(state.displacement)
    beta_arr = np.asarray(beta, dtype=complex)
    d = np.zeros(n + 1, dtype=complex)
    for u in range(n + 1):
        for p in range(u, n + 1):
            d[u] += (
                A[p]
                * (-1) ** p
                * math.comb(p, u)
                * np.conj(g) ** (p - u)
                / math.sqrt(math.factorial(p))
            )
    a_bar = np.conj(g - 2.0 * beta_arr)
    total = np.zeros(beta_arr.shape, dtype=float)
    for k in range(n + 1):
        e_k = np.zeros(beta_arr.shape, dtype=complex)
        for u in range(k, n + 1):
            e_k = e_k + math.comb(u, k) * d[u] * a_bar ** (u - k)
        total = total + (-1) ** k * math.factorial(k) * np.abs(e_k) ** 2
    w = (2.0 / math.pi) * np.exp(-2.0 * np.abs(beta_arr - g) ** 2) * total
    if np.isscalar(beta) or beta_arr.ndim == 0:
        return float(w)
    return w


def _zero_padded(rho: fock.DensityMatrix, dim: int) -> np.ndarray:
    mat = np.zeros((dim, dim), dtype=complex)
    mat[: rho.dim, : rho.dim] = rho.mat
    return mat


def wigner_oracle(rho: fock.DensityMatrix, beta: complex) -> float:
    """Displaced-parity Wigner value (2/pi) Tr[rho D(beta) Pi D(beta)^dag].

    D(beta) moves the upper levels of rho, not only its vacuum, so the
    density matrix is zero-padded (exactly) into a truncation sized for a
    displacement of |beta| plus the reach sqrt(rho.dim) of rho's own cutoff.
    """
    dim = max(rho.dim, fock.Truncation.auto(abs(beta) + math.sqrt(rho.dim)).dim)
    D = fock.displacement_matrix(beta, fock.Truncation(dim))
    P = _zero_padded(rho, dim) @ D
    diag = np.einsum("ij,ij->j", D.conj(), P)
    signs = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)
    return float((2.0 / math.pi) * np.sum(signs * diag).real)


def wigner_oracle_grid(rho: fock.DensityMatrix, grid: PhaseGrid) -> np.ndarray:
    """Displaced-parity values over a grid.

    Uses the exact split D(u + iv) = e^{iuv} e^{u(a^dag - a)} e^{iv(a^dag + a)}
    (the commutator of the two generators is a number), so only one matrix
    exponential per axis value is needed; the phase cancels inside
    D^dag rho D.  Agrees with the pointwise evaluation to machine precision.
    """
    corner = max(abs(complex(x, p)) for x in grid.xs[:: grid.xs.size - 1]
                 for p in grid.ps[:: grid.ps.size - 1])
    dim = max(rho.dim, fock.Truncation.auto(corner).dim)
    mat = _zero_padded(rho, dim)
    t = fock.Truncation(dim)
    a = fock.annihilation_matrix(t)
    gen_u = a.conj().T - a
    gen_v = 1j * (a.conj().T + a)
    signs = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)
    rho_u = [None] * grid.xs.size
    for i, x in enumerate(grid.xs):
        A = expm(float(x) * gen_u)
        rho_u[i] = A.conj().T @ mat @ A
    out = np.empty((grid.xs.size, grid.ps.size))
    for j, p in enumerate(grid.ps):
        B = expm(float(p) * gen_v)
        # K[i,l] = sum_k conj(B)[i,k] s_k B[l,k]; then the parity trace of
        # B^dag M B is the elementwise contraction of M with K
        K = (B.conj() * signs[None, :]) @ B.T
        for i, M in enumerate(rho_u):
            out[i, j] = (2.0 / math.pi) * float(np.sum(M * K).real)
    return out


def _simpson2d(values: np.ndarray, xs: np.ndarray, ps: np.ndarray) -> float:
    return float(simpson(simpson(values, x=ps, axis=1), x=xs))


def wigner_negativity(state: dq.DQState, grid: PhaseGrid | None = None) -> float:
    """Negativity volume: integral of |W| minus one, by composite Simpson.

    The grid must cover the support (boundary values are checked) and be
    fine enough that the full-step and double-step Simpson estimates agree
    to 1e-3; otherwise GridTooCoarse is raised.  Samples are attached to
    the grid's ``values`` field for reuse.
    """
    if grid is None:
        grid = default_grid(state)
    if grid.xs.size % 2 == 0 or (grid.xs.size - 1) % 4 != 0 or grid.ps.size % 2 == 0:
        raise ValueError("negativity grids need 4k+1 points per axis")
    W = wigner_closed(state, grid.mesh())
    grid.values = W
    absW = np.abs(W)
    peak = float(absW.max())
    edge = max(absW[0, :].max(), absW[-1, :].max(), absW[:, 0].max(), absW[:, -1].max())
    if edge > 1e-7 * peak:
        raise GridTooCoarse(f"grid does not cover the state support (edge/peak {edge/peak:.2e})")
    fine = _simpson2d(absW, grid.xs, grid.ps)
    coarse = _simpson2d(absW[::2, ::2], grid.xs[::2], grid.ps[::2])
    if abs(fine - coarse) > 1e-3:
        raise GridTooCoarse(f"Simpson refinement gap {abs(fine - coarse):.2e} > 1e-3")
    return fine - 1.0
