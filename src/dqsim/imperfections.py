"""Non-ideal heralding: lossy detector POVM, impure source, realized state.

A photon-number-resolving detector of efficiency eta_d that reports m
clicks implements the diagonal POVM element

    pi_m = sum_{k>=m} C(k,m) eta_d^m (1-eta_d)^(k-m) |k><k|    (no dark counts),

and an imperfect source emits (1-eta_s)|0><0| + eta_s |n><n|.  The
realized signal state conjugates the two-mode input by the beam splitter
and contracts the detection mode against the POVM weights; its trace
before normalization is the heralding probability under imperfections.

Because the source mixture has rank two, the conjugation is evaluated on
the two pure branches separately, which is exact and keeps everything at
O(dim^3) without forming dim^2 x dim^2 operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dq, fock
from .errors import ZeroProbability

__all__ = [
    "ImperfectionParams",
    "povm_element",
    "mixed_source",
    "realized_state",
    "realized_fidelity",
    "fidelity_heatmap",
]


@dataclass(frozen=True)
class ImperfectionParams:
    """Detector efficiency eta_d and source purity weight eta_s, both in [0, 1]."""

    eta_d: float
    eta_s: float

    def __post_init__(self):
        for name in ("eta_d", "eta_s"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name}={val} outside [0, 1]")


def _povm_weights(m: int, eta_d: float, dim: int) -> np.ndarray:
    # eta_d = 1 collapses to the projector |m><m| through 0^0 = 1
    weights = np.zeros(dim)
    for k in range(m, dim):
        weights[k] = math.comb(k, m) * eta_d**m * (1.0 - eta_d) ** (k - m)
    return weights


def povm_element(m: int, eta_d: float, t: fock.Truncation) -> fock.DensityMatrix:
    """Diagonal POVM element of the lossy number-resolving detector."""
    if m < 0:
        raise ValueError("m must be non-negative")
    if not 0.0 <= eta_d <= 1.0:
        raise ValueError("eta_d must lie in [0, 1]")
    return fock.DensityMatrix(np.diag(_povm_weights(m, eta_d, t.dim)).astype(complex))


def mixed_source(n: int, eta_s: float, t: fock.Truncation) -> fock.DensityMatrix:
    """Convex mixture (1-eta_s)|0><0| + eta_s|n><n| of vacuum and the n-photon state."""
    if not 0.0 <= eta_s <= 1.0:
        raise ValueError("eta_s must lie in [0, 1]")
    if not 0 <= n < t.dim:
        raise ValueError(f"n={n} outside truncation dim={t.dim}")
    weights = np.zeros(t.dim)
    weights[0] += 1.0 - eta_s
    weights[n] += eta_s
    return fock.DensityMatrix(np.diag(weights).astype(complex))


def _branch_amplitudes(cfg: dq.CMConfig, t: fock.Truncation) -> tuple[np.ndarray, np.ndarray]:
    """Two-mode amplitudes after the beam splitter for the |n> and |0> source branches."""
    return fock._bs_output(cfg.alpha, cfg.n, cfg.R, t), fock._bs_output(cfg.alpha, 0, cfg.R, t)


def realized_state(
    cfg: dq.CMConfig, imp: ImperfectionParams, t: fock.Truncation | None = None
) -> tuple[fock.DensityMatrix, float]:
    """Signal state heralded through the lossy detector with the impure source.

    Returns the normalized density matrix and the heralding probability
    (the trace before normalization).
    """
    if t is None:
        t = fock.Truncation.auto(cfg.alpha, cfg.n, cfg.m)
    psi_n, psi_0 = _branch_amplitudes(cfg, t)
    w = _povm_weights(cfg.m, imp.eta_d, t.dim)
    sw = np.sqrt(w)
    rho = np.zeros((t.dim, t.dim), dtype=complex)
    if imp.eta_s > 0.0:
        M = psi_n * sw[None, :]
        rho += imp.eta_s * (M @ M.conj().T)
    if imp.eta_s < 1.0:
        M = psi_0 * sw[None, :]
        rho += (1.0 - imp.eta_s) * (M @ M.conj().T)
    prob = float(np.trace(rho).real)
    if prob < 1e-300:
        raise ZeroProbability(f"herald m={cfg.m} never fires (eta_d={imp.eta_d})")
    return fock.DensityMatrix(rho / prob), prob


def realized_fidelity(
    cfg: dq.CMConfig, imp: ImperfectionParams, t: fock.Truncation | None = None
) -> float:
    """Overlap Tr(rho_ideal rho_realized) with the ideal heralded pure state."""
    if t is None:
        t = fock.Truncation.auto(cfg.alpha, cfg.n, cfg.m)
    ideal, _ = fock.brute_force_cm(cfg.n, cfg.m, cfg.alpha, cfg.R, t)
    rho, _ = realized_state(cfg, imp, t)
    val = np.vdot(ideal.amps, rho.mat @ ideal.amps)
    return float(val.real)


def fidelity_heatmap(
    cfg: dq.CMConfig,
    eta_d_values,
    eta_s_values,
    t: fock.Truncation | None = None,
) -> list[tuple[float, float, float]]:
    """Rows (eta_d, eta_s, fidelity) over the efficiency grid.

    The beam-splitter work is done once per configuration; each grid cell
    then reduces to reweighting detection-mode columns, which matches
    realized_fidelity exactly.
    """
    if t is None:
        t = fock.Truncation.auto(cfg.alpha, cfg.n, cfg.m)
    ideal, _ = fock.brute_force_cm(cfg.n, cfg.m, cfg.alpha, cfg.R, t)
    psi_n, psi_0 = _branch_amplitudes(cfg, t)
    col_norm_n = np.sum(np.abs(psi_n) ** 2, axis=0)
    col_norm_0 = np.sum(np.abs(psi_0) ** 2, axis=0)
    ov_n = np.abs(ideal.amps.conj() @ psi_n) ** 2
    ov_0 = np.abs(ideal.amps.conj() @ psi_0) ** 2
    rows = []
    for ed in np.asarray(eta_d_values, float):
        w = _povm_weights(cfg.m, float(ed), t.dim)
        for es in np.asarray(eta_s_values, float):
            prob = float(w @ (es * col_norm_n + (1.0 - es) * col_norm_0))
            if prob < 1e-300:
                fid = 0.0  # herald never fires; report zero overlap, not NaN
            else:
                fid = float(w @ (es * ov_n + (1.0 - es) * ov_0)) / prob
            rows.append((float(ed), float(es), fid))
    return rows
