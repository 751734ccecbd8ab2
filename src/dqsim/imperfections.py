"""Non-ideal heralding: lossy detector, impure source, realized state.

The source emits (1-eta_s)|0><0| + eta_s |n><n|; a detector of efficiency
eta_d is an ideal one behind a beam splitter that transmits eta_d (Leonhardt,
Measuring the Quantum State of Light, 1997).  Loss commutes with
displacement, D(beta) -> D(sqrt(eta_d) beta), and U|0>|n> holds exactly n
photons, so each source photon is lost independently with probability
(1-eta_d) R, and the branch that lost l is the component u_l of
`dq.herald_terms` (its eta_d = 1, l = 0 slice is `dq.build_dq`'s ideal
state).  The source is two such kernels, the `source_branches`: weight eta_s
on the input |n> and 1 - eta_s on |0>, whose one amplitude has |u_0[0]|^2 =
Poisson(eta_d chi; m).  The realized state is D(alpha sqrt R) rho_bare D^dag
with the exact mixture over levels 0..n (no Fock cutoff, no ratio of eta_d or R)

    rho_bare ∝ sum_b w_b sum_{l=0}^{n_b} u_l^(b) u_l^(b)dag.

Each amplitude is one exponential of the logarithms in `dq.herald_terms` times its unit phase,
taken over its branch's largest amplitude.  The commands take p and F from `realized_probability`
and the bare moments from `realized_moments`, each one pass over l per branch with no rho and no
(n + 1)^2 array, and refuse a herald that fires with p below the normal float range, 0 included
(p is an exact 0 only where each of its exponents is -inf), and an F below that range whose
overlap has a finite exponent, so a printed 0 is an exact 0.  `mixture` forms rho_bare from
`components` for library callers and the oracle tests.
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
from .errors import PrecisionLoss, ZeroProbability

__all__ = [
    "ImperfectionParams",
    "povm_element",
    "source_branches",
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


def source_branches(cfg: dq.CMConfig, eta_d_values, eta_s_values) -> list:
    """The impure source as (weights along eta_s, herald terms of the input |n_b>) branches:
    eta_s on |n>, 1 - eta_s on |0>."""
    es = np.atleast_1d(np.asarray(eta_s_values, float))
    return [(es, herald_terms(cfg, eta_d_values)),
            (1.0 - es, herald_terms(cfg._replace(n=0), eta_d_values))]


def components(terms: HeraldTerms) -> np.ndarray:
    """u_l[q] at each eta_d as an (eta_d, n + 1, n + 1) array [i, l, q], zero where l + q > n."""
    n = terms.cfg.n
    k = n - np.arange(n + 1)[:, None] - np.arange(n + 1)  # the Hankel index n - l - q
    k = np.where(k < 0, -1, k)  # the padded last column, log 0, fills l + q > n
    log_g = np.pad(terms.log_g, ((0, 0), (0, 1)), constant_values=-np.inf)
    phase = np.pad(terms.phase, ((0, 0), (0, 1)))
    return np.exp(terms.log_a[:, :, None] + terms.log_b + log_g[:, k]) * phase[:, k]


def _peak(terms: HeraldTerms) -> np.ndarray:
    """The largest log |u_l[q]| at each eta_d, 0 where every u_l[q] is 0: a (max, +) pass with
    top[s, i] the largest log |b_q| + log |K g_(s-q)| at eta_d[i]."""
    n, log_g = terms.cfg.n, np.ascontiguousarray(terms.log_g.T)
    top = np.full(log_g.shape, -np.inf)
    for q in range(n + 1):
        np.maximum(top[q:], terms.log_b[q] + log_g[:n + 1 - q], out=top[q:])
    peak = np.max(terms.log_a.T + top[::-1], axis=0)
    return np.where(peak > -np.inf, peak, 0.0)


def _slabs(terms: HeraldTerms, peak):
    """(k, u) for l = n down to 0, small slabs first as a_l falls with l: u[q, i] = u_l[q] at
    eta_d[i] over e^peak[i], q < k; the peak comes off last, exactly near the largest."""
    log_g = np.ascontiguousarray(terms.log_g[:, ::-1].T)  # [n - k, i]: log |K g_k| at eta_d[i]
    phase = np.ascontiguousarray(terms.phase[:, ::-1].T)
    for l, k in zip(range(terms.cfg.n, -1, -1), range(1, terms.cfg.n + 2)):
        x = terms.log_a[:, l] + terms.log_b[:k, None]
        x += log_g[l:]
        x -= peak
        np.exp(x, out=x)
        yield k, np.multiply(x, phase[l:], out=None if np.iscomplexobj(phase) else x)


def realized_probability(branches, ideal=None):
    """p = sum_b w_b S_b and F = sum_b (w_b S_b / p) (O_b / S_b) (None without c) over eta_d x
    eta_s, F = 0 where p = 0: a pass over each branch's slabs sums S' = S_b e^(-2 peak) and O' =
    O_b e^(-2 peak), and the shares take the top peak that weighs in, so nothing is subnormal."""
    if ideal is not None and not ideal.imag.any():
        ideal = ideal.real  # real amplitudes then meet c in a real product
    sums = []
    for w, terms in branches:
        peak, norms, overlaps = _peak(terms), np.zeros(terms.eta_d.size), np.zeros(terms.eta_d.size)
        for k, u in _slabs(terms, peak):
            norms += np.sum(np.abs(u) ** 2, axis=0)  # the real |u|^2: through z_0, S rounds apart
            if ideal is not None:
                overlaps += np.abs(ideal[:k].conj() @ u) ** 2
        sums.append((w, peak[:, None], norms[:, None], overlaps[:, None]))
    top = np.max([np.where((w > 0) & (s > 0), pk, -np.inf) for w, pk, s, _ in sums], axis=0)
    top = np.where(top > -np.inf, top, 0.0)  # a branch that does not weigh in may peak above it
    parts = [w * s * np.exp(2 * np.minimum(pk - top, 0.0)) for w, pk, s, _ in sums]
    total, tiny = sum(parts), dq._TINY  # a live S' is at least about 1, a dead one 0
    fid = None if ideal is None else sum(part / np.maximum(total, tiny) * (o / np.maximum(s, tiny))
                                         for part, (_, _, s, o) in zip(parts, sums))
    return total * np.exp(2 * top), fid


def _check_range(branches, prob, ideal=None, fid=None) -> None:
    """ZeroProbability where the herald fires with p below the normal float range, 0 included:
    p is an exact 0 only where no branch that weighs in (w_b > 0) has a finite log_g.
    PrecisionLoss where F is below that range and such a branch has a finite exponent of
    <c|u_l>: some c_q != 0 meets a finite log |a_l| + log |K g_(n_b-l-q)| (2 log |c_0| on |0>)."""
    (es, terms), m = branches[0], branches[0][1].cfg.m
    fires = np.any([(w > 0) & (t.log_g > -np.inf).any(axis=1)[:, None] for w, t in branches],
                   axis=0)
    for i, j in np.argwhere(fires & (prob < dq._TINY))[:1]:
        raise ZeroProbability(f"herald m={m} fires with p below the normal float range"
                              f" (eta_d={terms.eta_d[i]}, eta_s={es[j]})")
    for i, j in [] if ideal is None else np.argwhere((fid < dq._TINY) & (prob > 0)):
        if any(np.convolve(t.log_a[i] > -np.inf, t.log_g[i] > -np.inf)[t.cfg.n::-1]
               @ (ideal[:t.cfg.n + 1] != 0) for w, t in branches if w[j] > 0):
            raise PrecisionLoss(f"fidelity of herald m={m} below the normal float range"
                                f" (eta_d={terms.eta_d[i]}, eta_s={es[j]})")


def realized_moments(branches):
    """p (<a>, <a^2>, <a^dag a>) over 3 x eta_d x eta_s: per branch, one pass over the slabs
    sums z_d[j] = sum_l conj(u_l[j - d]) u_l[j] e^(-2 peak), d = 0..2, times w_b e^(2 peak)."""
    total = 0.0
    for weights, terms in branches:
        n, rows, peak = terms.cfg.n, terms.eta_d.size, _peak(terms)
        z = np.zeros((3, n + 1, rows), complex)
        for k, u in _slabs(terms, peak):
            for d in range(3):
                z[d, d:k] += u[:k - d].conj() * u[d:]
        moments = np.array([sum((w * z[j - i, j] for i, j, w in dq._moment_terms(n + 1, *uv)),
                                np.zeros(rows, complex)) for uv in ((0, 1), (0, 2), (1, 1))])
        total = total + weights * (moments * np.exp(2 * peak))[:, :, None]
    return total


def realized_point(branches, ideal=None):
    """p and F (None without c) at the first eta_d and eta_s; ZeroProbability where the herald
    never fires (p = 0), or as `_check_range` refuses p or F anywhere on the branches' axes."""
    prob, fid = realized_probability(branches, ideal)
    _check_range(branches, prob, ideal, fid)
    if prob[0, 0] == 0:
        terms = branches[0][1]
        raise ZeroProbability(f"herald m={terms.cfg.m} never fires (eta_d={terms.eta_d[0]})")
    return float(prob[0, 0]), None if ideal is None else float(fid[0, 0])


def mixture(branches) -> tuple[np.ndarray, float]:
    """Normalized rho_bare = sum_b w_b sum_l u_l u_l^dag over levels 0..n as an array, and its
    `realized_point` p, at the first eta_d and eta_s, for library callers and oracle tests."""
    prob, n = realized_point(branches)[0], branches[0][1].cfg.n
    rho = sum(w[0] * np.pad(u.T @ u.conj(), (0, n - t.cfg.n))
              for w, t in branches for u in components(t)[:1])
    return rho / prob, prob


def fidelity_heatmap(cfg: dq.CMConfig, eta_d_values, eta_s_values) -> list[tuple[float, ...]]:
    """Rows (eta_d, eta_s, <c_m|rho_bare|c_m>) from `realized_probability`, 0 where the herald
    never fires, refused as in `_check_range`; the ideal state comes first, so a failing one
    builds no herald terms."""
    ideal = dq.build_dq(cfg)[0].coeffs
    branches = source_branches(cfg, eta_d_values, eta_s_values)
    prob, fid = realized_probability(branches, ideal)
    _check_range(branches, prob, ideal, fid)
    es, eds = branches[0][0].tolist(), branches[0][1].eta_d.tolist()
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
