"""Non-Gaussianity quantifiers: Hilbert-Schmidt distance and Wigner negativity.

The Hilbert-Schmidt measure compares a state rho with the displaced
squeezed thermal reference tau = D(gamma) S(zeta) nu(nbar) S^dag D^dag
whose first and second moments match those of rho:

    delta[rho] = Tr[(rho - tau)^2] / (2 Tr(rho^2)),   0 <= delta <= 1/2.

For the heralded qudits Tr(rho tau) is the phase-space overlap of the two
Wigner functions, a Gaussian-weighted polynomial that a Gauss-Hermite rule
integrates exactly (`hsd_of_coeffs`); the dense-Fock `hsd` is its oracle.

Wigner functions use the convention integral W d(Re beta) d(Im beta) = 1,
so a coherent state peaks at 2/pi.  The closed form for displaced qudits
factors into Gaussian times a finite positive/negative Hermite sum.  Its
independent reference is the displaced parity of a Fock matrix rho,
W(beta) = (2/pi) sum_nm rho_nm (-1)^n <m|D(2 beta)|n>, from the exact elements
<m|D(g)|n> = sqrt(n!/m!) g^(m-n) e^(-|g|^2/2) L_n^(m-n)(|g|^2), m >= n, of the
untruncated displacement (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dq, fock
from .errors import GridTooCoarse, NonPhysicalCovariance
# unused here, but perfbench/spans.py traces nongauss.expm and fails to install without it
from .fock import expm
from .squeezing import bare_moment, covariance_from_moments, minimize, row_blocks

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

    @classmethod
    def centered(cls, center: complex, half_width: float, points: int = 201) -> "PhaseGrid":
        if points % 2 == 0 or (points - 1) % 4 != 0:
            raise ValueError("points must be of the form 4k + 1 (e.g. 201, 401)")
        xs = np.linspace(center.real - half_width, center.real + half_width, points)
        ps = np.linspace(center.imag - half_width, center.imag + half_width, points)
        return cls(xs, ps)

    def mesh(self, rows: slice = slice(None)) -> np.ndarray:
        """beta over the grid, or over the given rows (x values) of it."""
        return self.xs[rows, None] + 1j * self.ps[None, :]


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


def _root_det(sxx, spp, sxp):
    """sqrt(det sigma), floored at the vacuum value 1/2; det sigma < 1/4 is unphysical."""
    det = sxx * spp - sxp * sxp
    low = np.min(det)
    if low < 0.25 - 1e-9:
        raise NonPhysicalCovariance(f"det(sigma) = {low:.6e} < 1/4")
    return np.sqrt(np.maximum(det, 0.25))


def _ref_from_moments(a1: complex, a2: complex, n1: float) -> GaussianRef:
    sxx, spp, sxp = covariance_from_moments(a1, a2, n1)
    root = float(_root_det(sxx, spp, sxp))
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


def hsd_of_coeffs(coeffs):
    """Hilbert-Schmidt measure of bare superpositions sum_q c_q |q>.

    Coefficients run along the leading axis (each vector is normalized),
    trailing axes are batch axes; an all-zero vector (alpha = 0 with m > n
    heralds nothing) gives NaN, as in `variance_x_map`.  Displacement drops
    out because the matched reference co-displaces.
    Tr(tau^2) = 1 / (2 sqrt(det sigma)) and Tr(rho tau) = pi * integral
    W_rho W_tau d^2 beta (Cahill-Glauber), with W_rho = (2/pi)
    exp(-2|beta|^2) P(beta), P the degree-2n polynomial of `wigner_closed`,
    and W_tau the Gaussian of mean mu = <a> and covariance sigma/2 in
    v = (Re beta, Im beta).  Completing the square with M = 2 sigma + 1,
    v0 = M^-1 mu and K = sigma M^-1 / 2 = L L^T gives

        Tr(rho tau) = 2 exp(-2 mu.v0) / (pi sqrt(det M))
                      * integral exp(-|t|^2) P(v0 + sqrt(2) L t) d^2 t.

    P stays of degree 2n in each t, and the (n + 1)-node Gauss-Hermite rule
    per axis is exact to degree 2n + 1, so its (n + 1)^2-node sum is the
    exact integral: no Fock cutoff is involved.
    """
    from numpy.polynomial.hermite import hermgauss

    c = np.asarray(coeffs, dtype=complex)
    s = np.sum(np.abs(c) ** 2, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        c = np.where(s > 0, c / np.sqrt(s), np.nan)
    a1 = bare_moment(c, 0, 1)
    sxx, spp, sxp = covariance_from_moments(a1, bare_moment(c, 0, 2), bare_moment(c, 1, 1).real)
    root = _root_det(sxx, spp, sxp)
    mxx, mpp, mxp = 2.0 * sxx + 1.0, 2.0 * spp + 1.0, 2.0 * sxp
    det_m = mxx * mpp - mxp * mxp
    x0 = (mpp * a1.real - mxp * a1.imag) / det_m
    p0 = (mxx * a1.imag - mxp * a1.real) / det_m
    # Cholesky factor L of K = sigma M^-1 / 2
    l11 = np.sqrt((sxx * mpp - sxp * mxp) / (2.0 * det_m))
    l21 = (sxp * mxx - sxx * mxp) / (2.0 * det_m * l11)
    l22 = np.sqrt((spp * mxx - sxp * mxp) / (2.0 * det_m) - l21 * l21)
    t, w = hermgauss(c.shape[0])
    t = math.sqrt(2.0) * t.reshape((-1,) + (1,) * (c.ndim - 1))
    ti, tj = t[:, None], t[None, :]
    nodes = (x0 + l11 * ti) + 1j * (p0 + l21 * ti + l22 * tj)
    integral = np.tensordot(np.outer(w, w), _wigner_poly(c, 0j, nodes), axes=2)
    gauss = np.exp(-2.0 * (a1.real * x0 + a1.imag * p0)) / (math.pi * np.sqrt(det_m))
    tr_rho_tau = 2.0 * gauss * integral
    delta = 0.5 * (1.0 - 2.0 * tr_rho_tau + 0.5 / root)
    return delta if delta.ndim else float(delta)


def hsd_scan(n: int, m: int, alpha_sq_values, R_values) -> np.ndarray:
    """delta over a rectangular (|alpha|^2, R) grid, shape (len(a), len(R))."""
    a_vals = np.asarray(alpha_sq_values, float)
    r_vals = np.asarray(R_values, float)
    return hsd_of_coeffs(dq.coefficients_grid(n, m, np.sqrt(a_vals)[:, None], r_vals[None, :]))


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
        objective, np.array([a_vals[ia], r_vals[ir]]), xatol=1e-5, fatol=1e-9, maxiter=2000
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
    checked pointwise against the displaced-parity reference.  The Hermite
    sum is `_wigner_poly`, which `hsd_of_coeffs` shares.
    """
    beta_arr = np.asarray(beta, dtype=complex)
    g = complex(state.displacement)
    w = (2.0 / math.pi) * np.exp(-2.0 * np.abs(beta_arr - g) ** 2) * _wigner_poly(
        state.coeffs, g, beta_arr
    )
    if np.isscalar(beta) or beta_arr.ndim == 0:
        return float(w)
    return w


def _wigner_poly(A: np.ndarray, g: complex, beta: np.ndarray) -> np.ndarray:
    """The polynomial factor sum_k (-1)^k k! |e_k|^2 of the displaced-qudit Wigner function.

    A holds the coefficients along its leading axis, trailing axes are batch
    axes that broadcast against beta from the right.  The result has degree
    2n in (Re beta, Im beta).
    """
    n = A.shape[0] - 1
    d = np.zeros(A.shape, dtype=complex)
    for u in range(n + 1):
        for p in range(u, n + 1):
            term = A[p] * (-1) ** p * math.comb(p, u) * np.conj(g) ** (p - u)
            d[u] += term / math.sqrt(math.factorial(p))
    a_bar = np.conj(g - 2.0 * beta)
    # a_bar ** j for j >= 2 is made once, in the k = 0 pass, and dropped after
    # the last k that uses it; numpy's fast-path powers 0 and 1 (ones, a copy)
    # are redone where used.  The batched HSD so needs no more memory for n = 2.
    a_pow = {}
    shape = np.broadcast_shapes(a_bar.shape, A.shape[1:])
    total = np.zeros(shape, dtype=float)
    for k in range(n + 1):
        e_k = np.zeros(shape, dtype=complex)
        for u in range(k, n + 1):
            j = u - k
            if j > 1 and k == 0:
                a_pow[j] = a_bar**j
            e_k += math.comb(u, k) * d[u] * (a_pow[j] if j > 1 else a_bar**j)
        a_pow.pop(n - k, None)
        total += (-1) ** k * math.factorial(k) * np.abs(e_k) ** 2
    return total


def wigner_oracle(rho: fock.DensityMatrix, beta):
    """Displaced-parity Wigner function (2/pi) Tr[rho D(beta) Pi D(beta)^dag], beta scalar or array.

    As D(beta) Pi D(beta)^dag = D(2 beta) Pi, W = (2/pi) sum_nm rho_nm (-1)^n <m|D(2 beta)|n>,
    with the untruncated elements h_n^(k) = <n+k|D(gamma)|n> = sqrt(n!/(n+k)!) gamma^k
    e^(-x/2) L_n^(k)(x), x = |gamma|^2, and <n|D(gamma)|n+k> = (-1)^k conj(h_n^(k))
    (Cahill & Glauber, Phys. Rev. 177, 1857 (1969); QuTiP's "laguerre" method, Johansson,
    Nation & Nori, Comput. Phys. Commun. 184, 1234 (2013)).  The Laguerre recurrence in n,

        h_(n+1)^(k) = [(2n+1+k-x) h_n^(k) - sqrt(n(n+k)) h_(n-1)^(k)] / sqrt((n+1)(n+1+k)),

    started from h_0^(k) = gamma^k e^(-x/2) / sqrt(k!), carries the factorials and powers, so
    nothing overflows (|h| <= 1) and rho is used on its own dimension: no cutoff is chosen.
    It reads only rho's Fock matrix, independent of `wigner_closed`.
    """
    gamma = 2.0 * np.asarray(beta, dtype=complex)
    x = np.abs(gamma) ** 2
    mat, dim = rho.mat, rho.dim
    k = np.arange(dim, dtype=float).reshape((-1,) + (1,) * gamma.ndim)
    h = np.empty((dim,) + gamma.shape, dtype=complex)
    h[0] = np.exp(-0.5 * x)
    for j in range(1, dim):
        h[j] = h[j - 1] * gamma / math.sqrt(j)
    h_prev = np.zeros_like(h)
    total = np.zeros(gamma.shape, dtype=complex)
    for n in range(dim):
        # h holds h_n^(k) for k = 0 .. dim - 1 - n, the elements rho reaches
        upper = np.tensordot(mat[n, n:], h, axes=1)
        total += (-1) ** n * (upper + np.tensordot(mat[n + 1 :, n], h[1:].conj(), axes=1))
        kk = k[: dim - 1 - n]
        h, h_prev = (
            ((2 * n + 1 + kk - x) * h[:-1] - np.sqrt(n * (n + kk)) * h_prev[:-1])
            / np.sqrt((n + 1) * (n + 1 + kk)),
            h[:-1],
        )
    w = (2.0 / math.pi) * total.real
    if np.isscalar(beta) or gamma.ndim == 0:
        return float(w)
    return w


def _simpson_weights(axis: np.ndarray) -> np.ndarray:
    """Composite-Simpson weights h/3 (1, 4, 2, 4, ..., 2, 4, 1) of a uniform odd-length axis."""
    size = axis.size
    if size < 3 or size % 2 == 0:
        raise ValueError(f"Simpson's rule needs an odd number (>= 3) of points, got {size}")
    h = (axis[-1] - axis[0]) / (size - 1)
    if np.max(np.abs(np.diff(axis) - h)) > 1e-9 * abs(h):
        raise ValueError("Simpson's rule needs a uniformly spaced axis")
    w = np.full(size, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def _simpson2d(values: np.ndarray, xs: np.ndarray, ps: np.ndarray) -> float:
    return float(_simpson_weights(xs) @ values @ _simpson_weights(ps))


def wigner_negativity(state: dq.DQState, grid: PhaseGrid | None = None) -> float:
    """Negativity volume: integral of |W| minus one, by composite Simpson.

    The grid must cover the support (boundary values are checked) and be
    fine enough that the full-step and double-step Simpson estimates agree
    to 1e-3; otherwise GridTooCoarse is raised.  |W| is evaluated in
    `row_blocks` of the grid into one array, each point bit-identical to a
    whole-grid `wigner_closed`, so the checks and sums see the same values.
    """
    if grid is None:
        grid = default_grid(state)
    if (grid.xs.size - 1) % 4 != 0 or (grid.ps.size - 1) % 4 != 0:
        raise ValueError("negativity grids need 4k+1 points per axis")
    absW = np.empty((grid.xs.size, grid.ps.size))
    for lo, hi in row_blocks(absW.shape):
        absW[lo:hi] = np.abs(wigner_closed(state, grid.mesh(slice(lo, hi))))
    peak = float(absW.max())
    edge = max(absW[0, :].max(), absW[-1, :].max(), absW[:, 0].max(), absW[:, -1].max())
    if edge > 1e-7 * peak:
        raise GridTooCoarse(f"grid does not cover the state support (edge/peak {edge/peak:.2e})")
    fine = _simpson2d(absW, grid.xs, grid.ps)
    coarse = _simpson2d(absW[::2, ::2], grid.xs[::2], grid.ps[::2])
    if abs(fine - coarse) > 1e-3:
        raise GridTooCoarse(f"Simpson refinement gap {abs(fine - coarse):.2e} > 1e-3")
    return fine - 1.0
