"""Non-Gaussianity quantifiers: Hilbert-Schmidt distance and Wigner negativity.

The Hilbert-Schmidt measure compares a state rho with the displaced
squeezed thermal reference tau = D(gamma) S(zeta) nu(nbar) S^dag D^dag
whose first and second moments match those of rho:

    delta[rho] = Tr[(rho - tau)^2] / (2 Tr(rho^2)),   0 <= delta <= 1/2.

For the heralded qudits Tr(rho tau) needs only the Fock block of tau on
rho's n + 1 levels, which a recurrence gives exactly (`hsd_of_coeffs`); the
dense-Fock `hsd` is its oracle.  The moments, normalization and row blocks are dq's.

Wigner functions use the convention integral W d(Re beta) d(Im beta) = 1,
so a coherent state peaks at 2/pi.  The closed form for displaced qudits
factors into Gaussian times a finite positive/negative Hermite sum.  Its
independent reference is the displaced parity of a Fock matrix rho,
W(beta) = (2/pi) sum_nm rho_nm (-1)^n <m|D(2 beta)|n>, from the exact elements
<m|D(g)|n> = sqrt(n!/m!) g^(m-n) e^(-|g|^2/2) L_n^(m-n)(|g|^2), m >= n, of the
untruncated displacement (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

import numpy as np

from . import dq, fock, squeezing  # lazy: fock and squeezing run on first attribute access
from .errors import TOLERANCES, NonFiniteResult, NonPhysicalCovariance, PrecisionLoss

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


def __getattr__(name: str):
    # only for perfbench/spans.py, whose BOUND list traces nongauss.expm and nongauss.minimize;
    # goes once that list drops them (ROADMAP.md, "The benchmark catches up with the code")
    if name in ("expm", "minimize"):
        return getattr(fock if name == "expm" else squeezing, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# (lo, hi) of |alpha|^2 and of R: hsd_max's box, and the points of each scan along its edge
HSD_BOX = ((0.05, 16.0), (0.05, 0.95))
_EDGE_POINTS = 641
# complex Taylor coefficients of `_wigner_poly` per block of points (1 MiB), and the negative
# segments whose |W| `wigner_negativity` evaluates at once
_POLY_BLOCK = 1 << 16
_SEGMENT_BLOCK = 64


class GaussianRef(namedtuple("GaussianRef", "gamma r phi nbar")):
    """Displaced squeezed thermal state parameters (gamma, r e^{i phi}, nbar)."""

    __slots__ = ()

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


class PhaseGrid(namedtuple("PhaseGrid", "xs ps")):
    """Rectangular grid over beta = x + i p (x = Re beta, p = Im beta)."""

    __slots__ = ()

    @classmethod
    def centered(cls, center: complex, half_width: float, points: int = 201) -> "PhaseGrid":
        if points < 2:
            raise ValueError(f"points must be >= 2, got {points}")
        xs = np.linspace(center.real - half_width, center.real + half_width, points)
        ps = np.linspace(center.imag - half_width, center.imag + half_width, points)
        return cls(xs, ps)

    def mesh(self) -> np.ndarray:
        """beta over the grid."""
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


def _root_det(sxx, spp, sxp):
    """sqrt(det sigma), floored at the vacuum value 1/2; det sigma < 1/4 is unphysical."""
    det = sxx * spp - sxp * sxp
    low = np.min(det)
    if low < 0.25 - 1e-9:
        raise NonPhysicalCovariance(f"det(sigma) = {low:.6e} < 1/4")
    return np.sqrt(np.maximum(det, 0.25))


def _ref_from_moments(a1: complex, a2: complex, n1: float) -> GaussianRef:
    sxx, spp, sxp = dq.covariance_from_moments(a1, a2, n1)
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
    heralds nothing) or one whose norm overflows gives NaN, as in
    `variance_x_map`.  Displacement drops out because the matched reference
    co-displaces.  Tr(tau^2) = 1 / (2 sqrt(det sigma)), and Tr(rho tau) =
    c^dag T c needs only tau's Fock block T_pq = <p|tau|q> = G_qp on rho's
    levels 0..n, from the Fock-element recurrence of a Gaussian state (Miatto
    & Quesada, Quantum 4, 366 (2020); Quesada et al., Phys. Rev. A 100,
    022341 (2019)), exact and O(n^2) per vector.  With N = <a^dag a> - |<a>|^2,
    M = <a^2> - <a>^2, beta = (<a>, conj<a>), Q = [[N + 1, M], [conj M, N + 1]],
    A = X (1 - Q^-1) (X the swap) and gamma = conj(beta) - A beta,

        G_00 = exp(-beta^dag Q^-1 beta / 2) / sqrt(det Q),
        G_(k + e_i) = (gamma_i G_k + sum_j A_ij sqrt(k_j) G_(k - e_j)) / sqrt(k_i + 1).
    """
    c = dq.normalized(np.asarray(coeffs, dtype=complex))
    a1, a2, n1 = dq.bare_moment(c, 0, 1), dq.bare_moment(c, 0, 2), dq.bare_moment(c, 1, 1).real
    root = _root_det(*dq.covariance_from_moments(a1, a2, n1))
    q, mm = n1 - np.abs(a1) ** 2 + 1.0, a2 - a1 * a1  # N + 1 and M
    inv_det = 1.0 / (q * q - np.abs(mm) ** 2)  # 1 / det Q
    a00, a01, a11 = np.conj(mm) * inv_det, 1.0 - q * inv_det, mm * inv_det  # A_10 = A_01
    g0, g1 = np.conj(a1) - a00 * a1 - a01 * np.conj(a1), a1 - a01 * a1 - a11 * np.conj(a1)
    n = c.shape[0] - 1
    row = np.zeros_like(c)  # G_kp for k = 0, along p
    row[0] = np.exp((np.real(mm * np.conj(a1) ** 2) - q * np.abs(a1) ** 2) * inv_det) * np.sqrt(inv_det)
    for p in range(n):
        row[p + 1] = (g1 * row[p] + a11 * math.sqrt(p) * row[p - 1]) / math.sqrt(p + 1)
    root_p = np.sqrt(np.arange(1.0, n + 1)).reshape((-1,) + (1,) * (c.ndim - 1))
    prev, c_bar = np.zeros_like(row), np.conj(c)
    tr_rho_tau = c[0] * np.sum(c_bar * row, axis=0)
    for k in range(n):
        shifted = np.concatenate((np.zeros_like(row[:1]), root_p * row[:-1]))  # sqrt(p) G_k,p-1
        row, prev = (g0 * row + a00 * math.sqrt(k) * prev + a01 * shifted) / math.sqrt(k + 1), row
        tr_rho_tau = tr_rho_tau + c[k + 1] * np.sum(c_bar * row, axis=0)
    delta = 0.5 * (1.0 - 2.0 * tr_rho_tau.real + 0.5 / root)
    return delta if delta.ndim else float(delta)


def hsd_scan(n: int, m: int, alpha_sq_values, R_values) -> np.ndarray:
    """delta over a rectangular (|alpha|^2, R) grid, shape (len(a), len(R)), in `dq.row_blocks`."""
    alpha, r_vals = np.sqrt(np.asarray(alpha_sq_values, float)), np.asarray(R_values, float)
    out = np.empty((alpha.size, r_vals.size))
    for lo, hi in dq.row_blocks(out.shape):
        out[lo:hi] = hsd_of_coeffs(dq.coefficients_grid(n, m, alpha[lo:hi, None], r_vals[None, :]))
    return out


def hsd_max(n: int, m: int) -> tuple[float, float, float, bool]:
    """Maximal delta over the HSD_BOX of (|alpha|^2, R), on its R = 0.05 edge.

    Returns (value, alpha_sq, R, on_boundary), on_boundary always True.  As R -> 0 the
    state tends to |n> (C_n ~ t^n dominates), whose delta 1/2 (1 + 1/(2n + 1) - 2 n^n /
    (n + 1)^(n + 1)) is the ceiling; for n = 1 and m >= 1 the edge crosses x^2 = m, where
    C_0 = 0 and delta = 5/12.  The tests check for n, m <= 5 that no cell of a dense 2-D
    scan of the box is higher.  The edge is scanned at _EDGE_POINTS points, then the two
    steps around its best point, until they span less than 1e-9.
    """
    (lo, hi), (r_edge, _) = HSD_BOX
    while True:
        a_vals = np.linspace(lo, hi, _EDGE_POINTS)
        delta = hsd_scan(n, m, a_vals, [r_edge])[:, 0]
        i = int(np.argmax(delta))
        if hi - lo < 1e-9:
            return float(delta[i]), float(a_vals[i]), r_edge, True
        lo, hi = a_vals[max(i - 1, 0)], a_vals[min(i + 1, a_vals.size - 1)]


# ---------------------------------------------------------------------------
# Wigner functions


def wigner_closed(state: dq.DQState, beta):
    """Closed-form Wigner function of a displaced qudit at beta (scalar or array).

    The displacement g only shifts W, W(beta) = W_bare(beta - g).  For the bare
    coefficients c_u, with E(z) = sum_u d_u z^u, d_u = (-1)^u c_u / sqrt(u!) and
    e_k = E^(k)(a) / k! at a = -2 conj(beta - g), the function is

        W(beta) = (2/pi) exp(-2|beta - g|^2) sum_k (-1)^k k! |e_k|^2,

    which reduces to the familiar Gaussian for a bare coherent state and is
    checked pointwise against the displaced-parity reference.  The Hermite
    sum is `_wigner_poly`, which `wigner_negativity` shares.  Its terms cancel
    for large n, so the sum rounds to about eps (n + 1) S, S = sum_k k! |e_k|^2.
    That estimate alone fell to 0.85 times the error against `wigner_oracle` on
    700 seeded random displaced states, so the bound is twice it (at least 1.7
    times the error there); where the bound, times the Gaussian, passes
    TOLERANCES["wigner_pointwise"] anywhere in the request (from n = 22 on the
    default window of the m = 0 states at |alpha|^2 = 8, R = 0.5) this raises
    PrecisionLoss instead of returning W.
    """
    beta_arr = np.asarray(beta, dtype=complex)
    shifted = beta_arr - complex(state.displacement)
    poly, size = _wigner_poly(state.coeffs, shifted)
    gauss = (2.0 / math.pi) * np.exp(-2.0 * np.abs(shifted) ** 2)
    bound = 2.0 * np.finfo(float).eps * state.coeffs.size * np.max(gauss * size, initial=0.0)
    if bound > TOLERANCES["wigner_pointwise"]:
        raise PrecisionLoss(
            f"the Wigner polynomial of {state.coeffs.size} levels rounds to up to {bound:.2g}"
            f" on this request, past wigner_pointwise {TOLERANCES['wigner_pointwise']:.0e}"
        )
    w = gauss * poly
    if np.isscalar(beta) or beta_arr.ndim == 0:
        return float(w)
    return w


def _taylor_coeffs(c: np.ndarray) -> np.ndarray:
    """The coefficients d_u = (-1)^u c_u / sqrt(u!) of `wigner_closed`'s E(z).

    Raises NonFiniteResult from n = 171 on, where n! leaves the float range.
    """
    n = c.size - 1
    if n > 170:
        raise NonFiniteResult(f"the Wigner polynomial of {n + 1} levels needs {n}!, past floats")
    return np.array([(-1) ** u * c[u] / math.sqrt(math.factorial(u)) for u in range(n + 1)], complex)


def _wigner_poly(c: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P = sum_k (-1)^k k! |e_k|^2, the polynomial factor of the bare qudit's Wigner function,
    and S = sum_k k! |e_k|^2, which bounds its rounding, both of beta's shape.

    c is one coefficient vector of n + 1 levels, and P has degree 2n in (Re beta, Im beta).  The
    Taylor coefficients e_k of E at a = -2 conj(beta) come from one Taylor shift of d, the repeated
    synthetic division e_j += a e_(j+1) (Knuth, TAOCP vol. 2, sec. 4.6.4).  The points run in
    blocks of _POLY_BLOCK // (n + 1), so the n + 1 arrays of e fit in cache whatever the size of
    beta; every point's arithmetic is the same in any block.
    """
    d = _taylor_coeffs(c)
    n = d.size - 1
    points = np.ravel(beta)
    poly, size = np.zeros(points.shape), np.zeros(points.shape)
    step = max(1, _POLY_BLOCK // (n + 1))
    for lo in range(0, points.size, step):
        a = -2.0 * np.conj(points[lo : lo + step])
        e = [np.full(a.shape, d_u) for d_u in d]
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                e[j] += a * e[j + 1]
        total, bound = poly[lo : lo + step], size[lo : lo + step]
        for k in range(n + 1):
            term = math.factorial(k) * np.abs(e[k]) ** 2
            (np.subtract if k % 2 else np.add)(total, term, out=total)
            bound += term
    return poly.reshape(np.shape(beta)), size.reshape(np.shape(beta))


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


# lines of the scan that brackets the breakpoints of the negativity's outer integral
_SCAN_LINES = 401


def wigner_negativity(state: dq.DQState) -> float:
    """Negativity volume N = integral |W| - 1 (Kenfack & Zyczkowski, J. Opt. B 6, 396 (2004)).

    N = 2 integral_{P<0} |W| as W integrates to 1, and the displacement only shifts W (g = 0 here).
    With E = sum_u d_u z^u, P = sum_k (-1)^k |E^(k)(z)|^2 / k! at z = -2 conj(beta), and |E^(k)/E|
    <= (n/D)^k at distance D from E's roots: P < 0 only within 0.533 n of the -conj(root) / 2.  The
    window boxes those discs up to |Re beta|, |Im beta| = sqrt(n) + 6, beyond which |W| is below
    rounding.  The p-integral G(x) of |W| over P < 0 is smooth but at `_breakpoints`, and
    x = mid - half cos(phi) makes each piece between them analytic; a piece is halved until the
    Gauss-Legendre sums of its halves agree with its own to 1e-13, as G can have singularities
    close to the real axis.  Raises ValueError where rounding hides the sign of P (from n ~ 7).
    """
    c = np.trim_zeros(np.asarray(state.coeffs, dtype=complex), "b")
    n = c.size - 1
    r = math.sqrt(n) + 6.0
    d = _taylor_coeffs(c)
    centers = -np.conj(np.roots((d if np.any(d.imag) else d.real)[::-1])) / 2  # real E: real eigvals
    box = np.c_[centers.real, centers.imag][np.abs(centers) < r + 0.55 * n]
    if not box.size:  # n = 0, or P < 0 only where |W| is below rounding
        return 0.0
    lo, hi = np.maximum(box.min(axis=0) - 0.55 * n, -r), np.minimum(box.max(axis=0) + 0.55 * n, r)
    mid, half = complex(*(lo + hi) / 2), float(np.max(hi - lo)) / 2  # |Re, Im (beta - mid)| <= half
    u, w = _gauss_legendre(20)

    def roots(a):  # complex roots of the Chebyshev series in the rows of a
        mat = np.zeros((a.shape[0], a.shape[1] - 1, a.shape[1] - 1))
        i = np.arange(a.shape[1] - 2)
        mat[:, i + 1, i], mat[:, i, i + 1] = 0.5, np.where(i, 0.5, 1.0)  # t T_j, from T_(j -/+ 1)
        mat[:, -1] -= a[:, :-1] / a[:, -1:] / (2.0 if i.size else 1.0)
        return np.linalg.eigvals(mat)

    # P(beta) = sum_ij coef[i, j] T_i(Re(beta - mid) / half) T_j(Im(beta - mid) / half)
    z, to_cheb = _cheb_nodes(2 * n)
    coef = to_cheb @ _wigner_poly(c, mid + half * (z[:, None] + 1j * z))[0] @ to_cheb.T
    if np.finfo(float).eps * np.sum(np.abs(coef)) > 1e-5:  # P's rounding on the window, from n ~ 7
        raise ValueError(f"P of degree {2 * n} varies too widely on its window to resolve its sign")
    d_coef = _chebder(coef)

    def critical(xs):  # P at each real critical point of P(x, .), in order; 0 pads
        v = _chebvander((xs - mid.real) / half, 2 * n)
        q = roots(v @ d_coef)
        t = np.sort(np.where((np.abs(q.imag) < 1e-9) & (np.abs(q.real) < 1), q.real, 2.0))
        return np.where(t < 2, np.einsum("lj,lij->li", v @ coef, _chebvander(t, 2 * n)), 0.0)

    phi = 0.5 * math.pi * (u + 1.0)

    def integral(x0, x1):  # the share of N from x0 <= Re beta <= x1, elementwise
        x_half = 0.5 * (x1 - x0)
        xs = ((x0 + x_half)[:, None] - x_half[:, None] * np.cos(phi)).ravel()
        a = _chebvander((xs - mid.real) / half, 2 * n) @ coef
        ends = np.sort(np.c_[np.clip(roots(a).real, -1.0, 1.0), -np.ones(xs.size), np.ones(xs.size)])
        t_mid, t_half = 0.5 * (ends[:, 1:] + ends[:, :-1]), 0.5 * np.diff(ends)
        line, j = np.nonzero(np.einsum("lj,lij->li", a, _chebvander(t_mid, 2 * n)) < 0)
        seg_mid, seg_half, sums = t_mid[line, j, None], t_half[line, j], np.empty(line.size)
        for lo in range(0, line.size, _SEGMENT_BLOCK):  # |W| on _SEGMENT_BLOCK segments at a time
            at = slice(lo, lo + _SEGMENT_BLOCK)
            t = seg_mid[at] + seg_half[at, None] * u
            beta = xs[line[at], None] + 1j * (mid.imag + half * t)
            neg_w = -np.exp(-2.0 * np.abs(beta) ** 2) * _wigner_poly(c, beta)[0]
            sums[at] = np.einsum("sj,j->s", neg_w, w)  # per row: a gemv rounds by the row count
        g = np.bincount(line, seg_half * sums, xs.size).reshape(x_half.size, u.size)
        return 2.0 * half * x_half * ((np.sin(phi) * g) @ w)

    b = _breakpoints(critical, mid.real + half * np.linspace(-1.0, 1.0, _SCAN_LINES))
    x0, x1, total = b[:-1], b[1:], 0.0
    whole = integral(x0, x1)
    while x0.size:
        m = 0.5 * (x0 + x1)
        halves = integral(np.concatenate((x0, m)), np.concatenate((m, x1))).reshape(2, -1)
        done = (np.abs(halves[0] + halves[1] - whole) <= 1e-13) | (x1 - x0 < 1e-6)
        total += float(np.sum(halves[:, done]))
        x0, x1 = np.concatenate((x0[~done], m[~done])), np.concatenate((m[~done], x1[~done]))
        whole = halves[:, ~done].ravel()
        if x0.size > 200:  # rounding, not G, keeps the halves apart
            raise ValueError(f"the pieces of N do not settle to 1e-13 for this degree-{2 * n} P")
    return total


def _cheb_nodes(deg: int) -> tuple[np.ndarray, np.ndarray]:
    """The N = deg + 1 first-kind Chebyshev nodes z and the inverse of V = _chebvander(z, deg).

    At these nodes sum_k T_i(z_k) T_j(z_k) is N for i = j = 0, N / 2 for i = j > 0 and 0 otherwise
    (discrete orthogonality; Mason & Handscomb, Chebyshev Polynomials (2003), sec. 4.6), so
    V^-1 = diag(1, 2, ..., 2) V^T / N, exact and with no linear solve.
    """
    z = np.sin(0.5 * np.pi / (deg + 1) * np.arange(-deg, deg + 2, 2))  # -cos((k + 1/2) pi / N)
    inverse = 2.0 * _chebvander(z, deg).T / z.size
    inverse[0] /= 2.0
    return z, inverse


def _chebvander(x: np.ndarray, deg: int) -> np.ndarray:
    """T_0 .. T_deg at x along a new last axis by T_(i+1) = 2x T_i - T_(i-1), as numpy's chebvander."""
    x = np.asarray(x, dtype=float) + 0.0
    v, x2 = np.empty((deg + 1,) + x.shape), 2.0 * x
    v[0], v[1:2] = 1.0, x
    for i in range(2, deg + 1):
        v[i] = v[i - 1] * x2 - v[i - 2]
    return np.moveaxis(v, 0, -1)


def _chebder(coef: np.ndarray) -> np.ndarray:
    """d/dt of sum_ij coef[i, j] T_i(s) T_j(t), as numpy's chebder(coef, axis=1).

    Downward in j, T_j' = 2j T_(j-1) + j T_(j-2)' / (j - 2) for j > 2, T_2' = 4 T_1, T_1' = T_0;
    a degree-0 series gives one zero column, as in numpy.
    """
    c = coef.T.copy()
    der = (c[1:] if len(c) > 1 else c) * 0.0
    for j in range(len(c) - 1, 0, -1):
        der[j - 1] = (2 * j if j > 1 else 1) * c[j]
        if j > 2:
            c[j - 2] += (j * c[j]) / (j - 2)
    return der.T


@functools.lru_cache(maxsize=None)  # one rule per deg and process; callers only read it
def _gauss_legendre(deg: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the deg-point Gauss-Legendre rule on [-1, 1], in ascending order.

    Newton's method on the recurrence (k + 1) P_(k+1) = (2k + 1) x P_k - k P_(k-1), started from
    cos(pi (i + 3/4) / (deg + 1/2)), with P_deg' = deg (x P_deg - P_(deg-1)) / (x^2 - 1) and weights
    2 / ((1 - x^2) P_deg'^2) (Press et al., Numerical Recipes, 3rd ed. (2007), sec. 4.6); no
    eigensolver.  The mirror-image halves are averaged, as in numpy's leggauss.
    """
    x, step = -np.cos(np.pi * (np.arange(deg) + 0.75) / (deg + 0.5)), 1.0
    while True:
        p_prev, p = np.ones_like(x), x
        for k in range(1, deg):
            p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        dp = deg * (x * p - p_prev) / ((x - 1.0) * (x + 1.0))
        if np.max(np.abs(step)) <= 1e-15:
            break
        step = p / dp
        x = x - step
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    return (x - x[::-1]) / 2, (w + w[::-1]) / 2


def _breakpoints(critical, xs: np.ndarray) -> np.ndarray:
    """The x at which P(x, .) gains or loses a negative interval, in order.

    critical(x) gives P at the real critical points of P(x, .) in order, 0-padded.  Scan brackets
    whose sign patterns differ are bisected as one batch to 1e-4, a bracket whose midpoint differs
    from both ends splitting in two (an island can be born and merge between two scan lines).  A
    negative interval is a run of negative critical values, so a fold that leaves the runs alone
    is dropped; at the others one critical value crosses 0, found by linear interpolation.  An
    end of the scan where P is negative (the window was cut there) is a breakpoint too.
    """
    val = critical(xs)
    sig = np.sign(val)
    jump = np.flatnonzero(np.any(sig[1:] != sig[:-1], axis=1))
    lo, hi, v_lo, v_hi = xs[jump], xs[jump + 1], val[jump], val[jump + 1]
    while lo.size and np.max(hi - lo) > 1e-4:
        x = 0.5 * (lo + hi)
        v_x = critical(x)
        left = np.any(np.sign(v_x) != np.sign(v_lo), axis=1)
        right = np.any(np.sign(v_x) != np.sign(v_hi), axis=1)
        lo, hi = np.concatenate((lo[left], x[right])), np.concatenate((x[left], hi[right]))
        v_lo, v_hi = np.concatenate((v_lo[left], v_x[right])), np.concatenate((v_x[left], v_hi[right]))

    def runs(v):  # negative intervals: runs of negative critical values
        return np.sum(np.diff(v < 0, axis=1, prepend=False) & (v < 0), axis=1)

    keep = runs(v_lo) != runs(v_hi)
    lo, hi, v_lo, v_hi = lo[keep], hi[keep], v_lo[keep], v_hi[keep]
    k = np.argmax(np.sign(v_lo) != np.sign(v_hi), axis=1)  # the critical value that crosses 0
    a, b = v_lo[np.arange(k.size), k], v_hi[np.arange(k.size), k]
    x = lo + (hi - lo) * a / (a - b)
    edges = xs[[0, -1]][np.any(sig[[0, -1]] < 0, axis=1)]
    return np.sort(np.concatenate((x, edges)))
