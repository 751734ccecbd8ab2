import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from conftest import mp_rho_bare
from hypothesis import assume, given
from hypothesis import strategies as st

from dqsim import dq, fock, imperfections, polynomials
from dqsim.errors import ZeroProbability

BENCHMARKS = [
    # (n, |alpha|^2, R) with single-photon heralding
    (1, 3.05, 0.6000),
    (2, 5.45, 0.8175),
    (3, 6.00, 0.7650),
    (4, 6.65, 0.7275),
]


def _cfg(n, a2, R, m=1):
    return dq.CMConfig(n, m, complex(math.sqrt(a2)), R)


def test_params_validation():
    with pytest.raises(ValueError):
        imperfections.ImperfectionParams(1.2, 0.5)
    with pytest.raises(ValueError):
        imperfections.ImperfectionParams(0.5, -0.1)


def test_povm_perfect_detector_is_projector():
    t = fock.Truncation(20)
    pi2 = imperfections.povm_element(2, 1.0, t)
    expected = np.zeros((20, 20))
    expected[2, 2] = 1.0
    np.testing.assert_allclose(pi2.mat, expected, atol=1e-15)


def test_povm_blind_detector():
    t = fock.Truncation(20)
    assert np.allclose(imperfections.povm_element(1, 0.0, t).mat, 0.0)
    # m = 0 with a blind detector always "fires": identity weights
    np.testing.assert_allclose(
        np.diag(imperfections.povm_element(0, 0.0, t).mat).real, np.ones(20)
    )


@pytest.mark.parametrize("eta_d", [0.25, 0.5, 0.9, 1.0])
def test_povm_completeness(eta_d):
    t = fock.Truncation(30)
    total = np.zeros(t.dim)
    for m in range(t.dim):
        total += np.diag(imperfections.povm_element(m, eta_d, t).mat).real
    np.testing.assert_allclose(total, np.ones(t.dim), atol=1e-10)


def test_ideal_limit_recovers_pure_state():
    for n, a2, R in BENCHMARKS[:2]:
        cfg = _cfg(n, a2, R)
        t = fock.Truncation.auto(cfg.alpha, cfg.n, cfg.m)
        rho, prob = imperfections.realized_state(
            cfg, imperfections.ImperfectionParams(1.0, 1.0), t
        )
        ideal, prob_ideal = fock.brute_force_cm(cfg.n, cfg.m, cfg.alpha, cfg.R, t)
        assert prob == pytest.approx(prob_ideal, abs=1e-8)
        assert np.vdot(ideal.amps, rho.mat @ ideal.amps).real == pytest.approx(1.0, abs=1e-8)
        assert imperfections.realized_fidelity(cfg, imperfections.ImperfectionParams(1.0, 1.0), t) == pytest.approx(1.0, abs=1e-8)


def test_realized_state_physicality():
    rng = np.random.default_rng(19)
    for _ in range(5):
        cfg = _cfg(int(rng.integers(0, 4)), float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.2, 0.9)))
        imp = imperfections.ImperfectionParams(float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.0, 1.0)))
        rho, prob = imperfections.realized_state(cfg, imp)
        assert 0.0 <= prob <= 1.0
        assert rho.hermiticity_defect() < 1e-12
        assert rho.trace() == pytest.approx(1.0, abs=1e-10)
        assert rho.min_eigenvalue() >= -1e-10


def test_vacuum_source_gives_attenuated_coherent_overlap():
    # eta_s = 0 collapses the source to vacuum: the heralded signal is the
    # reduced coherent state, so the fidelity equals its overlap with the
    # ideal heralded state
    cfg = _cfg(2, 3.1, 0.7)
    t = fock.Truncation.auto(cfg.alpha, cfg.n, cfg.m)
    fid = imperfections.realized_fidelity(cfg, imperfections.ImperfectionParams(1.0, 0.0), t)
    ideal, _ = fock.brute_force_cm(cfg.n, cfg.m, cfg.alpha, cfg.R, t)
    vac_branch, _ = fock.brute_force_cm(0, cfg.m, cfg.alpha, cfg.R, t)
    assert fid == pytest.approx(abs(np.vdot(ideal.amps, vac_branch.amps)) ** 2, abs=1e-10)


def test_fidelity_monotone_in_detector_efficiency():
    for n, a2, R in BENCHMARKS:
        cfg = _cfg(n, a2, R)
        t = fock.Truncation.auto(cfg.alpha, cfg.n, cfg.m)
        fids = [
            imperfections.realized_fidelity(cfg, imperfections.ImperfectionParams(ed, 1.0), t)
            for ed in (0.5, 0.7, 0.9, 1.0)
        ]
        assert all(b >= a - 1e-10 for a, b in zip(fids, fids[1:]))


def test_heatmap_corner_and_bounds():
    cfg = _cfg(2, 5.45, 0.8175)
    rows = imperfections.fidelity_heatmap(cfg, np.linspace(0.1, 1, 7), np.linspace(0, 1, 7))
    by_pos = {(round(d, 6), round(s, 6)): f for d, s, f in rows}
    assert by_pos[(1.0, 1.0)] == pytest.approx(1.0, abs=1e-8)
    assert all(-1e-9 <= f <= 1 + 1e-9 for f in by_pos.values())


def test_heatmap_matches_pointwise_evaluation():
    cfg = _cfg(1, 2.0, 0.55)
    t = fock.Truncation.auto(cfg.alpha, cfg.n, cfg.m)
    rows = imperfections.fidelity_heatmap(cfg, [0.6, 0.9], [0.3, 0.8])
    for ed, es, f in rows:
        direct = imperfections.realized_fidelity(
            cfg, imperfections.ImperfectionParams(ed, es), t
        )
        assert f == pytest.approx(direct, abs=1e-12)


def test_heatmap_memory_is_bounded_and_rows_match_mixture():
    # n = 100 on 1001 eta_d: the (n + 1)^2 components of all eta_d at once would take 163 MB
    cfg = dq.CMConfig(100, 1, complex(math.sqrt(2.0)), 0.9)
    eta_d = np.linspace(0, 1, 1001)
    tracemalloc.start()
    try:
        rows = imperfections.fidelity_heatmap(cfg, eta_d, [0.0, 1.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
    assert len(rows) == 2 * eta_d.size
    ideal = dq.build_dq(cfg)[0].coeffs
    for i in (1, 250, 500, 750, 1000):
        for j, eta_s in enumerate((0.0, 1.0)):
            rho, _ = imperfections.mixture(imperfections.herald_terms(cfg, [eta_d[i]]), 0, eta_s)
            fid = np.vdot(ideal, rho @ ideal).real / np.trace(rho).real
            assert rows[2 * i + j][:2] == (eta_d[i], eta_s)
            assert rows[2 * i + j][2] == pytest.approx(fid, rel=1e-12)


def test_impure_source_can_help():
    # for the qutrit benchmark there are efficiency cells where a less pure
    # source yields a higher fidelity than a pure one
    cfg = _cfg(2, 5.45, 0.8175)
    eds = np.linspace(0.3, 1.0, 8)
    rows_low = imperfections.fidelity_heatmap(cfg, eds, [0.4])
    rows_pure = imperfections.fidelity_heatmap(cfg, eds, [1.0])
    assert any(fl > fp for (_, _, fl), (_, _, fp) in zip(rows_low, rows_pure))


def test_zero_probability_guard():
    cfg = _cfg(1, 1.0, 0.5)
    with pytest.raises(ZeroProbability):
        imperfections.realized_state(cfg, imperfections.ImperfectionParams(0.0, 1.0))


_reflectivity = st.floats(0.05, 0.95)


@given(n=st.integers(0, 6), alpha_sq=st.floats(0.0, 30.0), R=_reflectivity,
       eta_s=st.floats(0.0, 1.0))
def test_herald_probabilities_are_complete(n, alpha_sq, R, eta_s):
    # a blind detector (eta_d = 0) reports m = 0 whatever arrives: the herald fires with p = 1
    _, prob = imperfections.mixture(
        imperfections.herald_terms(_cfg(n, alpha_sq, R, m=0), [0.0]), 0, eta_s
    )
    assert prob == pytest.approx(1.0, abs=1e-12)


@given(
    n=st.integers(0, 4),
    m=st.integers(0, 4),
    alpha_sq=st.floats(0.0, 16.0),
    R=_reflectivity,
    eta_d=st.sampled_from([0.05, 0.3, 0.7, 1.0]),
    eta_s=st.sampled_from([0.0, 0.5, 1.0]),
    phase=st.sampled_from([0.0, 0.7, -2.3]),
)
def test_mixture_matches_fock_oracle(n, m, alpha_sq, R, eta_d, eta_s, phase):
    cfg = dq.CMConfig(n, m, math.sqrt(alpha_sq) * complex(math.cos(phase), math.sin(phase)), R)
    imp = imperfections.ImperfectionParams(eta_d, eta_s)
    try:
        _, prob_fock = imperfections.realized_state(cfg, imp)
    except ZeroProbability:
        with pytest.raises(ZeroProbability):
            imperfections.mixture(imperfections.herald_terms(cfg, [eta_d]), 0, eta_s)
        return
    rho, prob = imperfections.mixture(imperfections.herald_terms(cfg, [eta_d]), 0, eta_s)
    assert prob == pytest.approx(prob_fock, rel=1e-12)
    ideal, _ = dq.build_dq(cfg)
    fid = np.vdot(ideal.coeffs, rho @ ideal.coeffs).real
    assert fid == pytest.approx(imperfections.realized_fidelity(cfg, imp), abs=1e-10)


def _components_reference(n, m, alpha, R, eta_d):
    """u_l[q] in its unfactorized form, one (l, q) at a time on Python numbers."""
    y = math.sqrt(eta_d) * alpha * math.sqrt(1.0 - R)
    u = np.zeros((n + 1, n + 1), dtype=complex)
    for l in range(n + 1):
        for q in range(n - l + 1):
            k = n - l - q
            u[l, q] = (math.sqrt(math.comb(n, l) * ((1.0 - eta_d) * R) ** l
                                 / (math.factorial(m) * math.factorial(n - l)))
                       * math.exp(-eta_d * abs(alpha) ** 2 * (1.0 - R) / 2)
                       * math.comb(n - l, q) * math.sqrt(math.factorial(q))
                       * (eta_d * R) ** (k / 2) * (1.0 - R) ** (q / 2)
                       * polynomials.hermite2(k, m, y.conjugate(), y))
    return u


@given(
    n=st.integers(0, 8),
    m=st.integers(0, 8),
    alpha_sq=st.floats(0.0, 30.0),
    R=_reflectivity,
    phase=st.sampled_from([0.0, 0.7, -2.3]),
)
def test_components_match_the_unfactorized_form(n, m, alpha_sq, R, phase):
    # u_l[q] = K a_l b_q g_{n-l-q}, gathered for several eta_d at once, against the product of
    # binomials, factorials and powers it factors
    alpha = math.sqrt(alpha_sq) * complex(math.cos(phase), math.sin(phase))
    eta_d = [0.0, 0.3, 0.7, 1.0]
    u = imperfections.components(imperfections.herald_terms(dq.CMConfig(n, m, alpha, R), eta_d))
    for i, ed in enumerate(eta_d):
        ref = _components_reference(n, m, alpha, R, ed)
        np.testing.assert_allclose(u[i], ref, rtol=0, atol=1e-13 * np.abs(ref).max())


@given(
    n=st.integers(0, 11),
    m=st.integers(0, 9),
    alpha_sq=st.floats(0.0, 30.0),
    R=_reflectivity,
    phase=st.sampled_from([0.0, 0.7, -2.3]),
    eta_s=st.sampled_from([0.0, 0.4, 1.0]),
)
def test_realized_sums_match_sums_over_the_components(n, m, alpha_sq, R, phase, eta_s):
    # the one pass over l against S, O and the bare moments summed over the (n + 1)^2
    # components at each eta_d; n <= 1 has no <a^2> terms
    cfg = dq.CMConfig(n, m, math.sqrt(alpha_sq) * complex(math.cos(phase), math.sin(phase)), R)
    try:  # the ideal c: an arbitrary one can cancel in <c|u_l> and cost digits on both sides
        c = dq.build_dq(cfg)[0].coeffs
    except ZeroProbability:
        assume(False)
    terms = imperfections.herald_terms(cfg, [0.0, 1e-100, 0.3, 1.0])
    prob, prob_fid = imperfections.realized_probability(terms, [eta_s], c)
    prob_moments = imperfections.realized_moments(terms, [eta_s])
    for i, u in enumerate(imperfections.components(terms)):
        norm, vac = np.sum(np.abs(u) ** 2), terms.vacuum[i]
        overlap = np.sum(np.abs(u @ c.conj()) ** 2)
        assert prob[i, 0] == pytest.approx(eta_s * norm + (1 - eta_s) * vac, rel=1e-14, abs=0)
        assert prob_fid[i, 0] == pytest.approx(
            eta_s * overlap + (1 - eta_s) * vac * abs(c[0]) ** 2, rel=1e-14, abs=0)
        for k, (s, t) in enumerate([(0, 1), (0, 2), (1, 1)]):
            expected = eta_s * complex(dq.bare_moment(u.T, s, t).sum())
            assert abs(prob_moments[k, i, 0] - expected) <= 1e-14 * norm * (n + 1)


@given(
    n=st.integers(0, 8),
    m=st.integers(0, 12),
    alpha_sq=st.floats(0.01, 40.0),
    R=_reflectivity,
    eta_d=st.floats(0.01, 1.0),
    eta_s=st.floats(0.0, 1.0),
)
def test_mixture_is_a_density_matrix(n, m, alpha_sq, R, eta_d, eta_s):
    rho, prob = imperfections.mixture(
        imperfections.herald_terms(_cfg(n, alpha_sq, R, m=m), [eta_d]), 0, eta_s
    )
    rho = fock.DensityMatrix(rho)
    assert rho.dim == n + 1 and 0.0 < prob <= 1.0 + 1e-12
    assert rho.hermiticity_defect() < 1e-14
    assert rho.trace() == pytest.approx(1.0, abs=1e-12)
    assert rho.min_eigenvalue() >= -1e-14


@given(m=st.integers(0, 10), alpha_sq=st.floats(0.01, 30.0), R=_reflectivity,
       eta_d=st.floats(0.01, 1.0))
def test_vacuum_branch_is_poisson(m, alpha_sq, R, eta_d):
    mu = eta_d * alpha_sq * (1.0 - R)
    poisson = math.exp(m * math.log(mu) - mu - math.lgamma(m + 1))
    # n = 0 runs the k sum over p(0, k); eta_s = 0 keeps only the vacuum branch
    for n, eta_s in ((0, 1.0), (2, 0.0)):
        rho, prob = imperfections.mixture(
            imperfections.herald_terms(_cfg(n, alpha_sq, R, m=m), [eta_d]), 0, eta_s
        )
        assert prob == pytest.approx(poisson, rel=1e-12)
        assert abs(rho[0, 0]) == pytest.approx(1.0, abs=1e-14)


def _mp_mixture(n, m, a2, R, eta_d, eta_s, k_max=100):
    """rho_bare / p over levels 0..n and p = Tr rho_bare from the 50-digit `mp_rho_bare`."""
    rho = mp_rho_bare(n, m, a2, R, eta_d, eta_s, k_max)
    with mpmath.workdps(50):
        prob = sum(rho[q, q] for q in range(n + 1))
        return np.array((rho / prob).tolist(), dtype=float), float(prob)


@pytest.mark.parametrize("eta_d", [1e-100, 1e-300])
@pytest.mark.parametrize("n, m", [(1, 1), (4, 1), (3, 2), (6, 3)])
def test_mixture_at_tiny_eta_d_matches_mpmath(n, m, eta_d):
    # no power of eta_d or R is divided out, so nothing underflows on the way to p ~ eta_d^m;
    # (3, 2) and (6, 3) at 1e-300 never fire (p ~ 1e-600 and 1e-900)
    cfg = _cfg(n, 7.0, 0.4, m=m)
    terms = imperfections.herald_terms(cfg, [eta_d])
    rho_mp, prob_mp = _mp_mixture(n, m, 7.0, 0.4, eta_d, 0.8)
    if prob_mp < sys.float_info.min:  # below the normal float range
        with pytest.raises(ZeroProbability):
            imperfections.mixture(terms, 0, 0.8)
        return
    rho, prob = imperfections.mixture(terms, 0, 0.8)
    assert prob == pytest.approx(prob_mp, rel=1e-13, abs=0)
    np.testing.assert_allclose(rho, rho_mp, rtol=0, atol=1e-14)
