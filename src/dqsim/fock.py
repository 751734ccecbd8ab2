"""Truncated Fock-space linear algebra for the two-mode heralding setup.

Conventions
-----------
Quadratures are X = (a + a^dag)/sqrt(2) and P = (a - a^dag)/(i sqrt(2)),
so the vacuum variance is 1/2.  The beam splitter of reflectivity R acts
as U = exp(theta (a^dag b - a b^dag)) with theta = arccos(sqrt(R)); mode
``a`` carries the coherent input, mode ``b`` the number state, and the
heralding detector watches mode ``b`` after the interaction.

Everything lives on the first ``dim`` number states.  State constructors
certify that the discarded tail mass stays below ``TAIL_TOL`` and raise
``TruncationTooSmall`` otherwise.  The two-mode unitary conserves total
photon number, so it is built (and cached) as one orthogonal block per
total-photon sector; the dense matrix is assembled from those blocks on
demand.  This is the same matrix exponential of the truncated generator,
organized sector by sector.

Every unitary here (displacement, squeezing, beam-splitter sectors) is
exp(G) of an anti-Hermitian generator G.  `expm` takes it from the
eigendecomposition of the Hermitian iG = V diag(w) V^dag as
V diag(e^{-iw}) V^dag, which is exact up to the rounding of the
eigensolver and unitary by construction; real G gives a real orthogonal
result.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationTooSmall, ZeroProbability

__all__ = [
    "TAIL_TOL",
    "Truncation",
    "FockVector",
    "DensityMatrix",
    "expm",
    "annihilation_matrix",
    "displacement_matrix",
    "squeeze_matrix",
    "thermal_density",
    "coherent",
    "fock_state",
    "bs_unitary",
    "brute_force_cm",
]

TAIL_TOL = 1e-10


@dataclass(frozen=True)
class Truncation:
    """Number of retained Fock levels (indices 0 .. dim-1)."""

    dim: int

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError("Truncation.dim must be a positive integer")

    @classmethod
    def auto(cls, alpha: complex = 0.0, n: int = 0, m: int = 0) -> "Truncation":
        """Cutoff heuristic: coherent tail plus operator spillover headroom."""
        mu = abs(alpha) ** 2
        dim = math.ceil(mu + 7.0 * math.sqrt(mu)) + n + m + 15
        return cls(max(dim, 25))


@dataclass
class FockVector:
    """Complex amplitude vector over the truncated number basis."""

    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex)
        if self.amps.ndim != 1 or self.amps.size == 0:
            raise ValueError("FockVector.amps must be a non-empty 1-d array")
        if not np.all(np.isfinite(self.amps.real)) or not np.all(np.isfinite(self.amps.imag)):
            raise ValueError("FockVector amplitudes must be finite")

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm2(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amps, self.amps.conj()))


@dataclass
class DensityMatrix:
    """Complex square matrix over the truncated number basis."""

    mat: np.ndarray

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=complex)
        if self.mat.ndim != 2 or self.mat.shape[0] != self.mat.shape[1]:
            raise ValueError("DensityMatrix.mat must be a square matrix")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.mat - self.mat.conj().T)))

    def min_eigenvalue(self) -> float:
        herm = 0.5 * (self.mat + self.mat.conj().T)
        return float(np.linalg.eigvalsh(herm)[0])


# ---------------------------------------------------------------------------
# single-mode operators and states


def expm(gen: np.ndarray) -> np.ndarray:
    """exp(G) of an anti-Hermitian matrix G, from the eigendecomposition of iG.

    Raises ValueError when max|G + G^dag| exceeds 1e-12 max(1, max|G|): the
    eigendecomposition route is exact only for anti-Hermitian generators.
    """
    gen = np.asarray(gen)
    defect = float(np.max(np.abs(gen + gen.conj().T)))
    if defect > 1e-12 * max(1.0, float(np.max(np.abs(gen)))):
        raise ValueError(f"expm needs an anti-Hermitian generator (|G + G^dag| = {defect:.2e})")
    w, V = np.linalg.eigh(1j * gen)
    out = (V * np.exp(-1j * w)) @ V.conj().T
    return out.real if np.isrealobj(gen) else out


def annihilation_matrix(t: Truncation) -> np.ndarray:
    """Truncated annihilation operator a."""
    return np.diag(np.sqrt(np.arange(1, t.dim, dtype=float)), 1).astype(complex)


def coherent(alpha: complex, t: Truncation) -> FockVector:
    """Truncated coherent state |alpha>, renormalized on the kept levels.

    |<k|alpha>| is exp(k log|alpha| - lgamma(k + 1)/2 - |alpha|^2/2) at its
    peak k0, and from there the ratios |alpha|/sqrt(k), all below 1 walking
    away from k0, so nothing overflows; the phase is (alpha/|alpha|)^k.
    """
    amps = np.zeros(t.dim, dtype=complex)
    amps[0] = 1.0
    if alpha != 0:
        r, k0 = abs(alpha), min(int(abs(alpha) ** 2), t.dim - 1)
        ratio = r / np.sqrt(np.arange(1, t.dim))
        mod = np.ones(t.dim)
        mod[k0 + 1 :], mod[:k0] = np.cumprod(ratio[k0:]), np.cumprod(1 / ratio[:k0][::-1])[::-1]
        peak = math.exp(k0 * math.log(r) - math.lgamma(k0 + 1) / 2 - r * r / 2)
        amps = peak * mod * (alpha / r) ** np.arange(t.dim)
    kept = float(np.vdot(amps, amps).real)
    if 1.0 - kept >= TAIL_TOL:
        raise TruncationTooSmall(
            f"coherent tail mass {1.0 - kept:.3e} at dim={t.dim} (|alpha|^2={abs(alpha)**2:.3f})"
        )
    return FockVector(amps / math.sqrt(kept))


def fock_state(k: int, t: Truncation) -> FockVector:
    """Number state |k>."""
    if not 0 <= k < t.dim:
        raise TruncationTooSmall(f"|{k}> does not fit in dim={t.dim}")
    amps = np.zeros(t.dim, dtype=complex)
    amps[k] = 1.0
    return FockVector(amps)


def displacement_matrix(beta: complex, t: Truncation) -> np.ndarray:
    """D(beta) = exp(beta a^dag - beta* a) by matrix exponential.

    Exactly unitary on the truncated space; `coherent`'s tail check guards
    against displacements whose coherent support spills past the cutoff.
    """
    coherent(beta, t)
    a = annihilation_matrix(t)
    return expm(beta * a.conj().T - np.conj(beta) * a)


def _squeezed_vacuum_kept(r: float, dim: int) -> float:
    """Probability mass of S(r)|0> on levels below ``dim``."""
    th = math.tanh(abs(r))
    if th == 0.0:
        return 1.0
    kept = 0.0
    term = 1.0 / math.cosh(abs(r))  # |<0|S|0>|^2
    k = 0
    while 2 * k < dim:
        kept += term
        k += 1
        term *= th * th * (2 * k - 1) / (2 * k)
    return kept


def squeeze_matrix(r: float, phi: float, t: Truncation) -> np.ndarray:
    """S(zeta) = exp((zeta a^dag^2 - zeta* a^2)/2), zeta = r e^{i phi}."""
    if r < 0:
        raise ValueError("squeeze magnitude r must be non-negative")
    tail = max(1.0 - _squeezed_vacuum_kept(r, t.dim), 0.0)
    if tail >= TAIL_TOL:
        raise TruncationTooSmall(f"squeezing r={r:.3f} spills past dim={t.dim}")
    a = annihilation_matrix(t)
    ad = a.conj().T
    zeta = r * np.exp(1j * phi)
    return expm(0.5 * (zeta * (ad @ ad) - np.conj(zeta) * (a @ a)))


def thermal_density(nbar: float, t: Truncation) -> DensityMatrix:
    """Thermal state with mean photon number nbar, renormalized in truncation."""
    if nbar < 0:
        raise ValueError("nbar must be non-negative")
    if nbar == 0.0:
        weights = np.zeros(t.dim)
        weights[0] = 1.0
        return DensityMatrix(np.diag(weights).astype(complex))
    ratio = nbar / (1.0 + nbar)
    tail = ratio ** t.dim  # exact geometric tail
    if tail >= TAIL_TOL:
        raise TruncationTooSmall(f"thermal nbar={nbar:.3f} spills past dim={t.dim}")
    weights = ratio ** np.arange(t.dim) / (1.0 + nbar)
    weights /= weights.sum()
    return DensityMatrix(np.diag(weights).astype(complex))


# ---------------------------------------------------------------------------
# two-mode beam splitter

def _sectors(dim: int):
    """Yield (N, ks) for N = 0 .. 2(dim-1): sector N has basis |k>_a |N-k>_b, k in ks."""
    for N in range(2 * dim - 1):
        yield N, np.arange(max(0, N - dim + 1), min(N, dim - 1) + 1)


@functools.lru_cache
def _bs_blocks(R: float, dim: int) -> list[np.ndarray]:
    """Orthogonal blocks of U on each total-photon sector, in `_sectors` order.

    The generator restricted to a sector is real antisymmetric tridiagonal,
    so each block is exactly orthogonal.  Blocks are cached per (R, dim)
    and shared between callers, which must not modify them.
    """
    if not 0.0 < R < 1.0:
        raise ValueError("beam-splitter reflectivity must satisfy 0 < R < 1")
    theta = math.acos(math.sqrt(R))
    blocks: list[np.ndarray] = []
    for N, ks in _sectors(dim):
        if ks.size == 1:
            blocks.append(np.ones((1, 1)))
            continue
        gen = np.zeros((ks.size, ks.size))
        for i, k in enumerate(ks[:-1].tolist()):
            amp = theta * math.sqrt((k + 1) * (N - k))
            gen[i + 1, i] = amp
            gen[i, i + 1] = -amp
        blocks.append(expm(gen))
    return blocks


def _bs_output(alpha: complex, n: int, R: float, t: Truncation) -> np.ndarray:
    """Two-mode amplitudes out[j_a, k_b] of U |alpha>_a |n>_b, sector by sector."""
    psi = np.zeros((t.dim, t.dim), dtype=complex)
    psi[:, n] = coherent(alpha, t).amps
    out = np.zeros_like(psi)
    for (N, ks), block in zip(_sectors(t.dim), _bs_blocks(R, t.dim)):
        out[ks, N - ks] = block @ psi[ks, N - ks]
    return out


def bs_unitary(R: float, t: Truncation) -> np.ndarray:
    """Dense two-mode unitary on the product truncation (dim^2 x dim^2).

    Basis ordering: |j>_a |k>_b maps to row j*dim + k.
    """
    dim = t.dim
    U = np.zeros((dim * dim, dim * dim))
    for (N, ks), block in zip(_sectors(dim), _bs_blocks(R, dim)):
        flat = ks * dim + (N - ks)
        U[np.ix_(flat, flat)] = block
    return U


def brute_force_cm(
    n: int, m: int, alpha: complex, R: float, t: Truncation | None = None
) -> tuple[FockVector, float]:
    """Heralded output by direct two-mode evolution and projection.

    Sends |alpha>_a |n>_b through the beam splitter, projects mode b onto
    <m|, and returns (normalized signal state, success probability).
    """
    if n < 0 or m < 0:
        raise ValueError("photon numbers must be non-negative")
    if t is None:
        t = Truncation.auto(alpha, n, m)
    if n >= t.dim or m >= t.dim:
        raise TruncationTooSmall(f"n={n}, m={m} require dim > {max(n, m)}")
    col = _bs_output(alpha, n, R, t)[:, m]
    prob = float(np.vdot(col, col).real)
    if prob < 1e-300:
        raise ZeroProbability(f"herald m={m} has vanishing probability for n={n}, alpha={alpha}")
    return FockVector(col / math.sqrt(prob)), prob
