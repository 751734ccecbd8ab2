"""Non-ideal heralding: lossy detector POVM, impure source, realized state.

A detector of efficiency eta_d that reports m clicks implements the POVM
element pi_m = sum_{k>=m} w_k |k><k|, w_k = C(k,m) eta_d^m (1-eta_d)^(k-m)
(no dark counts); the source emits (1-eta_s)|0><0| + eta_s |n><n|.  So a
report of m is an ideal detection of some k >= m with weight w_k, and for
each k `dq.build_dq` gives p(n, k) and the state D(alpha sqrt R) c_k with
the same displacement.  The vacuum branch gives D(alpha sqrt R)|0> with
weight Poisson(eta_d chi; m), chi = |alpha|^2 (1-R).  The realized state is
therefore D(alpha sqrt R) rho_bare D^dag with the exact mixture over levels
0..n (`herald_terms`, then `mixture`, as a plain array; no Fock cutoff)

    rho_bare ∝ eta_s sum_{k>=m} w_k p(n,k) c_k c_k^dag + (1-eta_s) Poisson(eta_d chi; m) |0><0|.

`realized_state` and `realized_fidelity` evolve the two modes in a truncated
Fock space instead and are kept as the independent oracle.  They get p(n, m)
by cancellation inside U|alpha>|n>, so they hold only above p(n, m) ~ 1e-20.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import dq, fock
from .errors import NonFiniteResult, TruncationTooSmall, ZeroProbability
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

TAIL_REL = 1e-16  # bound on the neglected k-sum tail, relative to the sum so far
MAX_TERMS = 1000  # k-sum terms before TruncationTooSmall

# k = m..cutoff: w_k per eta_d, p(n, k), c_k, Poisson(eta_d chi; m) per eta_d, relative tail
HeraldTerms = namedtuple("HeraldTerms", "cfg eta_d weights probs coeffs vacuum cutoff tail")


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


def _weight(k: int, m: int, eta_d):
    # eta_d = 1 collapses to the projector |m><m| through 0^0 = 1
    return math.comb(k, m) * eta_d**m * (1.0 - eta_d) ** (k - m)


def povm_element(m: int, eta_d: float, t: fock.Truncation) -> fock.DensityMatrix:
    """Diagonal POVM element of the lossy number-resolving detector."""
    if m < 0:
        raise ValueError("m must be non-negative")
    if not 0.0 <= eta_d <= 1.0:
        raise ValueError("eta_d must lie in [0, 1]")
    weights = [_weight(k, m, eta_d) if k >= m else 0.0 for k in range(t.dim)]
    return fock.DensityMatrix(np.diag(weights).astype(complex))


def _tail_bound(cfg: dq.CMConfig, k: int, eta_d: np.ndarray) -> np.ndarray:
    """Bound on sum_{j>k} w_j p(n, j) per eta_d, for k >= n - 1, with no cancellation.

    p(n, j) <= U_j, the closed form with each Hermite term taken by modulus.
    For j > k both U_{j+1}/U_j <= chi (j+1)/(j+1-n)^2 and w_{j+1}/w_j =
    (1-eta_d)(j+1)/(j+1-m) fall with j, so once their product r at j = k+1
    is below 1 the tail is below w_{k+1} U_{k+1} / (1 - r).
    """
    n, m, j = cfg.n, cfg.m, k + 1
    r = dq.chi(cfg) * (j + 1) ** 2 * (1.0 - eta_d) / ((j + 1 - n) ** 2 * (j + 1 - m))
    s = np.complex128(1j * abs(cfg.alpha) * math.sqrt(1.0 - cfg.R))  # |H(x*, x)| <= |H(is, is)|
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h = [dq._level_factor(n, q, (1 - cfg.R) / cfg.R) * row
             for q, row in enumerate(hermite2_rows(n, j, s, s))]
        u = dq._herald_prefactor(dq.CMConfig(n, j, cfg.alpha, cfg.R)) * np.sum(np.abs(h) ** 2)
        return np.where(r < 1.0, _weight(j, m, eta_d) * u / (1.0 - r), np.inf)


def herald_terms(cfg: dq.CMConfig, eta_d_values) -> HeraldTerms:
    """The k sum until its tail bound is below TAIL_REL of the sum for every eta_d; a
    term that raises ZeroProbability counts as 0.  Raises TruncationTooSmall past
    MAX_TERMS terms and NonFiniteResult, naming k, where a term's sum_q |C_q|^2 overflows
    (n = 2: chi >~ 70-120)."""
    eta_d = np.atleast_1d(np.asarray(eta_d_values, float))
    weights, probs, coeffs = [], [], []
    total = np.zeros(eta_d.size)
    for k in range(cfg.m, cfg.m + MAX_TERMS):
        try:
            state, p = dq.build_dq(dq.CMConfig(cfg.n, k, cfg.alpha, cfg.R))
        except ZeroProbability:
            state, p = None, 0.0
        except NonFiniteResult:
            raise NonFiniteResult(
                f"C_q or sum_q |C_q|^2 overflows at the k sum's term k={k} for n={cfg.n},"
                f" m={cfg.m}, alpha={cfg.alpha}, R={cfg.R}"
            ) from None
        weights.append(_weight(k, cfg.m, eta_d))
        probs.append(p)
        coeffs.append(state.coeffs if state else np.zeros(cfg.n + 1, dtype=complex))
        total += weights[-1] * p
        tail = _tail_bound(cfg, k, eta_d) if k + 1 >= cfg.n else np.inf
        if np.all(tail <= TAIL_REL * total):
            mu = eta_d * dq.chi(cfg)
            with np.errstate(divide="ignore"):  # log 0 = -inf: Poisson(0; m > 0) = 0
                log_mu_m = cfg.m * np.log(mu) if cfg.m else 0.0
            vacuum = np.exp(log_mu_m - mu - math.lgamma(cfg.m + 1))
            rel = np.divide(tail, total, out=np.zeros_like(total), where=tail > 0)
            return HeraldTerms(cfg, eta_d, np.array(weights).T, np.array(probs),
                               np.array(coeffs), vacuum, k, float(rel.max()))
    raise TruncationTooSmall(f"k sum not closed in {MAX_TERMS} terms for n={cfg.n}, m={cfg.m}")


def mixture(terms: HeraldTerms, i: int, eta_s: float) -> tuple[np.ndarray, float]:
    """Normalized rho_bare over levels 0..n as an array, and its probability at eta_d[i], eta_s."""
    c = terms.coeffs
    rho = eta_s * (c.T * (terms.weights[i] * terms.probs)) @ c.conj()
    rho[0, 0] += (1.0 - eta_s) * terms.vacuum[i]
    prob = float(np.trace(rho).real)
    if prob < 1e-300:
        raise ZeroProbability(f"herald m={terms.cfg.m} never fires (eta_d={terms.eta_d[i]})")
    return rho / prob, prob


def fidelity_rows(terms: HeraldTerms, eta_s_values) -> list[tuple[float, float, float]]:
    """Rows (eta_d, eta_s, <c_m|rho_bare|c_m>) from w @ p and w @ (p |<c_m|c_k>|^2), with
    0 where the herald never fires."""
    ideal = dq.build_dq(terms.cfg)[0].coeffs
    ov = terms.probs * np.abs(terms.coeffs.conj() @ ideal) ** 2
    rows = []
    for ed, w, vac in zip(terms.eta_d, terms.weights, terms.vacuum):
        for es in np.asarray(eta_s_values, float):
            prob = es * float(w @ terms.probs) + (1.0 - es) * vac
            fid = es * float(w @ ov) + (1.0 - es) * vac * abs(ideal[0]) ** 2
            rows.append((float(ed), float(es), fid / prob if prob >= 1e-300 else 0.0))
    return rows


def fidelity_heatmap(cfg: dq.CMConfig, eta_d_values, eta_s_values) -> list[tuple[float, ...]]:
    """Rows (eta_d, eta_s, fidelity) over the efficiency grid, from one k sum."""
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
