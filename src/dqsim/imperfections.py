"""Non-ideal heralding: lossy detector, impure source, realized state.

The source emits (1-eta_s)|0><0| + eta_s |n><n|; a detector of efficiency
eta_d is an ideal one behind a beam splitter that transmits eta_d (Leonhardt,
Measuring the Quantum State of Light, 1997).  Loss commutes with
displacement, D(beta) -> D(sqrt(eta_d) beta), and U|0>|n> holds exactly n
photons, so each source photon is lost independently with probability
(1-eta_d) R.  With l lost, the rest form an ideal input at sqrt(eta_d) alpha:

    u_l[q] = sqrt(C(n,l) ((1-eta_d) R)^l / (m! (n-l)!)) e^(-eta_d chi/2) C(n-l,q) sqrt(q!)
             (eta_d R)^((n-l-q)/2) (1-R)^(q/2) H_{n-l-q,m}(sqrt(eta_d) x*, sqrt(eta_d) x),

q = 0..n-l, x = alpha sqrt(1-R), chi = |x|^2; |u_l|^2 is the branch's
probability (u_0 = sqrt(p(n, m)) c_m at eta_d = 1).  The realized state is
D(alpha sqrt R) rho_bare D^dag with the exact mixture over levels 0..n
(`herald_terms`, `mixture`; no Fock cutoff, no ratio of eta_d or R)

    rho_bare ∝ eta_s sum_{l=0}^{n} u_l u_l^dag + (1-eta_s) Poisson(eta_d chi; m) |0><0|,

whose vacuum term is the n = 0 case of u_0.  `realized_state` and
`realized_fidelity` evolve the two modes in a truncated Fock space instead
and are kept as the independent oracle; they get p(n, m) by cancellation
inside U|alpha>|n>, so they hold only above p(n, m) ~ 1e-20.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from . import dq, fock
from .errors import NonFiniteResult, ZeroProbability
from .polynomials import hermite2_rows

__all__ = [
    "ImperfectionParams",
    "povm_element",
    "herald_terms",
    "mixture",
    "fidelity_rows",
    "realized_state",
    "realized_fidelity",
    "fidelity_heatmap",
]

# comps[i, l] is u_l at eta_d[i], zero above level n - l; vacuum[i] is Poisson(eta_d[i] chi; m)
HeraldTerms = namedtuple("HeraldTerms", "cfg eta_d comps vacuum")


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


def povm_element(m: int, eta_d: float, t: fock.Truncation) -> fock.DensityMatrix:
    """Diagonal POVM element of the lossy number-resolving detector."""
    if m < 0:
        raise ValueError("m must be non-negative")
    if not 0.0 <= eta_d <= 1.0:
        raise ValueError("eta_d must lie in [0, 1]")
    # eta_d = 1 collapses to the projector |m><m| through 0^0 = 1
    weights = [math.comb(k, m) * eta_d**m * (1.0 - eta_d) ** (k - m) if k >= m else 0.0
               for k in range(t.dim)]
    return fock.DensityMatrix(np.diag(weights).astype(complex))


def _components(cfg: dq.CMConfig, eta_d: np.ndarray) -> np.ndarray:
    """u_l of the module docstring as an (eta_d.size, n + 1, n + 1) array [i, l, q]."""
    n, m, R = cfg.n, cfg.m, cfg.R
    y = np.sqrt(eta_d) * complex(cfg.alpha) * math.sqrt(1.0 - R)
    h = hermite2_rows(n, m, np.conj(y), y)  # h[l + q] = H_{n-l-q,m}(y*, y)
    log_c = math.lgamma(n + 1) - math.lgamma(m + 1) - eta_d * dq.chi(cfg)  # no float factorial
    u = np.zeros((eta_d.size, n + 1, n + 1), dtype=complex)
    for l in range(n + 1):
        front = np.exp(0.5 * (log_c - math.lgamma(l + 1)) - math.lgamma(n - l + 1))
        for q in range(n - l + 1):
            powers = ((1.0 - eta_d) * R) ** (l / 2) * (eta_d * R) ** ((n - l - q) / 2)
            u[:, l, q] = front * powers * dq._level_factor(n - l, q, 1.0 - R) * h[l + q]
    return u


def herald_terms(cfg: dq.CMConfig, eta_d_values) -> HeraldTerms:
    """The n + 1 components u_l and the vacuum branch's Poisson(eta_d chi; m) for each eta_d;
    NonFiniteResult where one overflows."""
    eta_d = np.atleast_1d(np.asarray(eta_d_values, float))
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            comps = _components(cfg, eta_d)
            vacuum = np.abs(_components(replace(cfg, n=0), eta_d)[:, 0, 0]) ** 2
        except OverflowError:  # k! of H_{n-l-q,m} for k >= 171
            comps = vacuum = np.inf
    if not (np.isfinite(comps).all() and np.isfinite(vacuum).all()):
        raise NonFiniteResult(f"the realized state's components overflow for n={cfg.n},"
                              f" m={cfg.m}, alpha={cfg.alpha}, R={cfg.R}")
    return HeraldTerms(cfg, eta_d, comps, vacuum)


def mixture(terms: HeraldTerms, i: int, eta_s: float) -> tuple[np.ndarray, float]:
    """Normalized rho_bare over levels 0..n as an array, and its probability at eta_d[i], eta_s."""
    rho = eta_s * (terms.comps[i].T @ terms.comps[i].conj())
    rho[0, 0] += (1.0 - eta_s) * terms.vacuum[i]
    prob = float(np.trace(rho).real)
    if prob < 1e-300:
        raise ZeroProbability(f"herald m={terms.cfg.m} never fires (eta_d={terms.eta_d[i]})")
    return rho / prob, prob


def fidelity_rows(terms: HeraldTerms, eta_s_values) -> list[tuple[float, float, float]]:
    """Rows (eta_d, eta_s, <c_m|rho_bare|c_m>), with 0 where the herald never fires."""
    ideal = dq.build_dq(terms.cfg)[0].coeffs
    probs = np.sum(np.abs(terms.comps) ** 2, axis=(1, 2))
    overlaps = np.sum(np.abs(terms.comps @ ideal.conj()) ** 2, axis=1)
    rows = []
    for ed, p, ov, vac in zip(terms.eta_d, probs, overlaps, terms.vacuum):
        for es in np.asarray(eta_s_values, float):
            prob = es * p + (1.0 - es) * vac
            fid = es * ov + (1.0 - es) * vac * abs(ideal[0]) ** 2
            rows.append((float(ed), float(es), float(fid / prob) if prob >= 1e-300 else 0.0))
    return rows


def fidelity_heatmap(cfg: dq.CMConfig, eta_d_values, eta_s_values) -> list[tuple[float, ...]]:
    """Rows (eta_d, eta_s, fidelity) over the efficiency grid, from one `herald_terms`."""
    return fidelity_rows(herald_terms(cfg, eta_d_values), eta_s_values)


def realized_state(
    cfg: dq.CMConfig, imp: ImperfectionParams, t: fock.Truncation | None = None
) -> tuple[fock.DensityMatrix, float]:
    """Fock-space oracle: realized state and probability, one source branch at a time."""
    if t is None:
        t = fock.Truncation.auto(cfg.alpha, cfg.n, cfg.m)
    sw = np.sqrt(np.diag(povm_element(cfg.m, imp.eta_d, t).mat).real)
    rho = np.zeros((t.dim, t.dim), dtype=complex)
    for n_src, weight in ((cfg.n, imp.eta_s), (0, 1.0 - imp.eta_s)):
        M = fock._bs_output(cfg.alpha, n_src, cfg.R, t) * sw[None, :]
        rho += weight * (M @ M.conj().T)
    prob = float(np.trace(rho).real)
    if prob < 1e-300:
        raise ZeroProbability(f"herald m={cfg.m} never fires (eta_d={imp.eta_d})")
    return fock.DensityMatrix(rho / prob), prob


def realized_fidelity(
    cfg: dq.CMConfig, imp: ImperfectionParams, t: fock.Truncation | None = None
) -> float:
    """Fock-space oracle: Tr(rho_ideal rho_realized) with rho_ideal from `fock.brute_force_cm`;
    valid only where p(n, m) is above about 1e-20 (see the module docstring)."""
    if t is None:
        t = fock.Truncation.auto(cfg.alpha, cfg.n, cfg.m)
    ideal, _ = fock.brute_force_cm(cfg.n, cfg.m, cfg.alpha, cfg.R, t)
    rho, _ = realized_state(cfg, imp, t)
    return float(np.vdot(ideal.amps, rho.mat @ ideal.amps).real)
