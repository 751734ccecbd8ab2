"""Non-ideal heralding: lossy detector, impure source, realized state.

The source emits (1-eta_s)|0><0| + eta_s |n><n|; a detector of efficiency
eta_d is an ideal one behind a beam splitter that transmits eta_d (Leonhardt,
Measuring the Quantum State of Light, 1997).  Loss commutes with
displacement, D(beta) -> D(sqrt(eta_d) beta), and U|0>|n> holds exactly n
photons, so each source photon is lost independently with probability
(1-eta_d) R, and the branch that lost l is the component u_l of
`dq.herald_terms` (its eta_d = 1, l = 0 slice is `dq.build_dq`'s ideal
state).  The realized state is D(alpha sqrt R) rho_bare D^dag with the exact
mixture over levels 0..n (no Fock cutoff, no ratio of eta_d or R)

    rho_bare ∝ eta_s sum_{l=0}^{n} u_l u_l^dag + (1-eta_s) e^(-eta_d chi) |g_0|^2/m! |0><0|,

whose vacuum weight, Poisson(eta_d chi; m), is the g_0 = y^m term.  Each amplitude is one
exponential of the logarithms in `dq.herald_terms` times its unit phase.  The commands take p
and F from `realized_probability` and the bare moments from `realized_moments`, each one pass
over l with no rho and no (n + 1)^2 array, and refuse a herald that fires with p below the normal
float range, 0 included: p is an exact 0 only where each of its exponents is -inf.  `mixture`
forms rho_bare from `components` for library callers and the oracle tests.
`realized_state` and `realized_fidelity` evolve the two modes in a
truncated Fock space instead and are kept as the independent oracle; they
get p(n, m) by cancellation inside U|alpha>|n>, so they hold only above
p(n, m) ~ 1e-20.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import dq, fock
from .dq import HeraldTerms, herald_terms
from .errors import ZeroProbability

__all__ = [
    "ImperfectionParams",
    "povm_element",
    "components",
    "realized_probability",
    "realized_moments",
    "realized_point",
    "mixture",
    "realized_state",
    "realized_fidelity",
    "fidelity_heatmap",
]


class ImperfectionParams(namedtuple("ImperfectionParams", "eta_d eta_s")):
    """Detector efficiency eta_d and source purity weight eta_s, both in [0, 1]."""

    __slots__ = ()

    def __new__(cls, eta_d: float, eta_s: float):
        for name, val in (("eta_d", eta_d), ("eta_s", eta_s)):
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name}={val} outside [0, 1]")
        return super().__new__(cls, eta_d, eta_s)


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


def components(terms: HeraldTerms) -> np.ndarray:
    """u_l[q] at each eta_d as an (eta_d, n + 1, n + 1) array [i, l, q], zero where l + q > n."""
    n = terms.cfg.n
    k = n - np.arange(n + 1)[:, None] - np.arange(n + 1)  # the Hankel index n - l - q
    k = np.where(k < 0, -1, k)  # the padded last column, log 0, fills l + q > n
    log_g = np.pad(terms.log_g, ((0, 0), (0, 1)), constant_values=-np.inf)
    phase = np.pad(terms.phase, ((0, 0), (0, 1)))
    return np.exp(terms.log_a[:, :, None] + terms.log_b + log_g[:, k]) * phase[:, k]


def _slabs(terms: HeraldTerms):
    """(k, u) for l = n down to 0, small slabs first as a_l falls with l: u[q, i] = u_l[q] at
    eta_d[i], q < k, the `components` amplitudes."""
    log_g = np.ascontiguousarray(terms.log_g[:, ::-1].T)  # [n - k, i]: log |K g_k| at eta_d[i]
    phase = np.ascontiguousarray(terms.phase[:, ::-1].T)
    for l, k in zip(range(terms.cfg.n, -1, -1), range(1, terms.cfg.n + 2)):
        yield k, np.exp(terms.log_a[:, l] + terms.log_b[:k, None] + log_g[l:]) * phase[l:]


def realized_probability(terms: HeraldTerms, eta_s_values, ideal=None):
    """p and p F (None without c) over eta_d x eta_s: one pass over the slabs u_l sums
    S = sum_l ||u_l||^2 and O = sum_l |<c|u_l>|^2; p = eta_s S + (1 - eta_s) vacuum and
    p F = eta_s O + (1 - eta_s) vacuum |c_0|^2, as they round."""
    norms, overlaps = np.zeros(terms.eta_d.size), np.zeros(terms.eta_d.size)
    for k, u in _slabs(terms):
        norms += np.sum(np.abs(u) ** 2, axis=0)  # the real |u|^2: through z_0, S rounds apart
        if ideal is not None:
            overlaps += np.abs(ideal[:k].conj() @ u) ** 2
    es, vac = np.asarray(eta_s_values, float), terms.vacuum[:, None]
    fid = None if ideal is None else es * overlaps[:, None] + (1.0 - es) * vac * abs(ideal[0]) ** 2
    return es * norms[:, None] + (1.0 - es) * vac, fid


def _check_range(terms: HeraldTerms, eta_s_values, prob) -> None:
    """ZeroProbability where the herald fires with p below the normal float range, 0 included:
    p is an exact 0 only where each of its exponents is -inf, and the vacuum's is log_g[:, 0]."""
    es, alive = np.asarray(eta_s_values, float), terms.log_g > -np.inf
    below = np.where(es > 0, alive.any(axis=1)[:, None], alive[:, :1]) & (prob < dq._TINY)
    if below.any():
        i, j = np.argwhere(below)[0]
        raise ZeroProbability(f"herald m={terms.cfg.m} fires with p below the normal float range"
                              f" (eta_d={terms.eta_d[i]}, eta_s={es[j]})")


def realized_moments(terms: HeraldTerms, eta_s_values):
    """p (<a>, <a^2>, <a^dag a>) over 3 x eta_d x eta_s: one pass over the slabs sums the
    diagonals z_d[j] = sum_l conj(u_l[j - d]) u_l[j], d = 0..2; p <.> = eta_s sum w z_d."""
    n, rows = terms.cfg.n, terms.eta_d.size
    z = np.zeros((3, n + 1, rows), complex)
    for k, u in _slabs(terms):
        for d in range(3):
            z[d, d:k] += u[:k - d].conj() * u[d:]
    moments = np.array([sum((w * z[j - i, j] for i, j, w in dq._moment_terms(n + 1, *uv)),
                            np.zeros(rows, complex)) for uv in ((0, 1), (0, 2), (1, 1))])
    return np.asarray(eta_s_values, float) * moments[:, :, None]


def realized_point(terms: HeraldTerms, eta_s: float, ideal=None):
    """p and F (None without c) of the realized state at eta_d[0] and eta_s; ZeroProbability
    where the herald never fires (p = 0) or fires with p below the normal float range."""
    prob, prob_fid = realized_probability(terms, [eta_s], ideal)
    _check_range(terms, [eta_s], prob)
    p = prob[0, 0]  # the one cell
    if p == 0:
        raise ZeroProbability(f"herald m={terms.cfg.m} never fires (eta_d={terms.eta_d[0]})")
    return float(p), None if ideal is None else float(prob_fid[0, 0] / p)


def mixture(terms: HeraldTerms, i: int, eta_s: float) -> tuple[np.ndarray, float]:
    """Normalized rho_bare over levels 0..n as an array, and its probability at eta_d[i], eta_s,
    for library callers and the oracle tests: rho is normalized with `realized_point`'s p."""
    r = slice(i, i + 1)
    row = HeraldTerms(terms.cfg, terms.eta_d[r], terms.log_a[r], terms.log_b, terms.log_g[r],
                      terms.phase[r], terms.vacuum[r])
    prob = realized_point(row, eta_s)[0]
    u = components(row)[0]
    rho = eta_s * (u.T @ u.conj())
    rho[0, 0] += (1.0 - eta_s) * terms.vacuum[i]
    return rho / prob, prob


def fidelity_heatmap(cfg: dq.CMConfig, eta_d_values, eta_s_values) -> list[tuple[float, ...]]:
    """Rows (eta_d, eta_s, <c_m|rho_bare|c_m>) from `realized_probability`, 0 where the herald
    never fires, ZeroProbability where it fires with p below the normal float range; the ideal
    state comes first, so a failing one builds no herald terms."""
    ideal = dq.build_dq(cfg)[0].coeffs
    terms = herald_terms(cfg, eta_d_values)
    prob, prob_fid = realized_probability(terms, eta_s_values, ideal)
    _check_range(terms, eta_s_values, prob)
    fid = np.divide(prob_fid, prob, out=np.zeros_like(prob), where=prob > 0)
    es, eds = np.asarray(eta_s_values, float).tolist(), terms.eta_d.tolist()
    return [(ed, s, f) for ed, row in zip(eds, fid.tolist()) for s, f in zip(es, row)]


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
