import cmath
import math
import sys
import tracemalloc
from itertools import product

import mpmath
import numpy as np
import pytest
from conftest import mp_components

from dqsim import dq, fock, imperfections
from dqsim.errors import DQSimError, NoRootInBracket, NonFiniteResult, ZeroProbability


def _cfg(n, m, alpha, R):
    return dq.CMConfig(n, m, complex(alpha), R)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(-1, 0, 1.0, 0.5)
    with pytest.raises(ValueError):
        _cfg(0, 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        _cfg(0, 0, 1.0, 0.0)


def test_classify_and_chi():
    assert dq.classify(2, 1) == "DQ+1"
    assert dq.classify(1, 3) == "DQ-2"
    assert dq.classify(3, 3) == "DQ"
    assert dq.chi(_cfg(0, 0, 2.0, 0.75)) == pytest.approx(1.0)


def test_single_photon_vacuum_detection_ratio():
    # coefficients proportional to (alpha sqrt(1-R), sqrt((1-R)/R))
    c = dq.coefficients_grid(1, 0, complex(1.3), 0.58)
    ratio = c[0] / c[1]
    assert ratio == pytest.approx(1.3 * math.sqrt(0.58), rel=1e-12)


def test_known_coefficient_roots():
    # zero of the vacuum coefficient of the (1,2) state at chi = 2
    R = 0.45
    alpha = math.sqrt(2.0 / (1 - R))
    assert abs(dq.coefficients_grid(1, 2, complex(alpha), R)[0]) < 1e-10
    # zero of the middle coefficient of the (2,1) state at chi = 1
    alpha = math.sqrt(1.0 / (1 - R))
    assert abs(dq.coefficients_grid(2, 1, complex(alpha), R)[1]) < 1e-10


def test_two_photon_herald_three_roots():
    # vacuum coefficient of the (2,3) state vanishes at chi = 3 +/- sqrt(3)
    R = 0.6
    for chi_root in (3 - math.sqrt(3), 3 + math.sqrt(3)):
        alpha = math.sqrt(chi_root / (1 - R))
        assert abs(dq.coefficients_grid(2, 3, complex(alpha), R)[0]) < 1e-10


def test_hermite_and_laguerre_routes_agree():
    # real draws plus the same moduli at two nonzero phases (complex Hermite path)
    rng = np.random.default_rng(11)
    for _ in range(20):
        alpha = float(rng.uniform(0.2, 2.5))
        R = float(rng.uniform(0.05, 0.95))
        for a in (alpha, alpha * cmath.exp(0.7j), alpha * cmath.exp(-2.3j)):
            for n in range(6):
                for m in range(8):
                    cfg = _cfg(n, m, a, R)
                    for q in range(n + 1):
                        h = dq.coefficients_grid(n, m, complex(a), R)[q]
                        l = dq.coefficient_laguerre(cfg, q)
                        scale = max(abs(h), abs(l), 1e-30)
                        assert abs(h - l) / scale < 1e-10


def test_build_dq_reference_cases():
    state, prob = dq.build_dq(_cfg(0, 0, 1.5, 0.5))
    assert state.coeffs.shape == (1,)
    assert abs(state.coeffs[0]) == pytest.approx(1.0)
    assert prob == pytest.approx(math.exp(-1.5**2 * 0.5), rel=1e-12)

    state, prob = dq.build_dq(_cfg(1, 1, 0.0, 0.37))
    assert abs(state.coeffs[0]) == pytest.approx(1.0)
    assert abs(state.coeffs[1]) == pytest.approx(0.0, abs=1e-15)
    assert prob == pytest.approx(0.37, rel=1e-12)

    with pytest.raises(ZeroProbability):
        dq.build_dq(_cfg(0, 2, 0.0, 0.5))


def test_oracle_equivalence_small_grid():
    # closed form against the two-mode evolution, moderate parameter grid
    t = fock.Truncation.auto(1.8, 4, 6)
    for n in range(5):
        for m in range(7):
            for alpha, R in [(0.7, 0.3), (1.8, 0.62), (1.2 * cmath.exp(0.9j), 0.45)]:
                if n == 0 and m > 0 and alpha == 0:
                    continue
                cfg = _cfg(n, m, alpha, R)
                state, p_closed = dq.build_dq(cfg)
                oracle, p_brute = fock.brute_force_cm(n, m, complex(alpha), R, t)
                v = dq.to_fock(state, t)
                assert abs(abs(np.vdot(v.amps, oracle.amps)) - 1.0) < 1e-8
                assert p_closed == pytest.approx(p_brute, abs=1e-8)


def test_herald_sum_matches_total_probability():
    cfg_alpha, R = 1.1, 0.52
    total = 0.0
    for m in range(25):
        total += dq.success_probability(_cfg(2, m, cfg_alpha, R))
    assert total == pytest.approx(1.0, abs=1e-8)


def test_superposition_levels_capped_by_input():
    # after undoing the displacement, the heralded state has no support
    # above the input photon number
    n, m, alpha, R = 3, 5, 1.4, 0.47
    t = fock.Truncation.auto(alpha, n, m)
    oracle, _ = fock.brute_force_cm(n, m, alpha, R, t)
    undo = fock.displacement_matrix(-alpha * math.sqrt(R), t)
    bare = undo @ oracle.amps
    assert float(np.sum(np.abs(bare[n + 1 :]) ** 2)) < 1e-8


def test_to_fock_matches_displaced_levels():
    cfg = _cfg(1, 2, math.sqrt(2.0 / 0.55), 0.45)  # chi = 2: pure displaced |1>
    state, _ = dq.build_dq(cfg)
    assert abs(state.coeffs[0]) < 1e-10
    t = fock.Truncation.auto(cfg.alpha, 1, 2)
    v = dq.to_fock(state, t)
    target = fock.FockVector(
        fock.displacement_matrix(state.displacement, t) @ fock.fock_state(1, t).amps
    )
    assert abs(np.vdot(v.amps, target.amps)) == pytest.approx(1.0, abs=1e-8)


def test_locus_solve_equal_superposition():
    R = 0.64
    roots = dq.locus_solve(1, 0, 0, dq.LocusTarget.EQUAL_SUPERPOSITION, R)
    assert min(abs(r - 1 / math.sqrt(R)) for r in roots) < 1e-8


def test_locus_solve_equal_superposition_subtracted():
    # both branches of (1 / 2 sqrt(R)) [1 +/- sqrt((1+7R)/(1-R))] with alpha > 0
    R = 0.3
    roots = dq.locus_solve(1, 2, 0, dq.LocusTarget.EQUAL_SUPERPOSITION, R)
    plus = (1 + math.sqrt((1 + 7 * R) / (1 - R))) / (2 * math.sqrt(R))
    minus = abs(1 - math.sqrt((1 + 7 * R) / (1 - R))) / (2 * math.sqrt(R))
    for target in (plus, minus):
        assert min(abs(r - target) for r in roots) < 1e-8


def test_locus_solve_coefficient_zeros():
    R = 0.5
    roots = dq.locus_solve(2, 3, 0, dq.LocusTarget.COEFFICIENT_ZERO, R)
    expected = sorted(math.sqrt(c / (1 - R)) for c in (3 - math.sqrt(3), 3 + math.sqrt(3)))
    assert len(roots) >= 2
    for e in expected:
        assert min(abs(r - e) for r in roots) < 1e-8
    # displacement-stripped single photon: alpha sqrt(1-R) = sqrt(3 - sqrt(3))
    alpha = math.sqrt((3 - math.sqrt(3)) / (1 - R))
    state, _ = dq.build_dq(_cfg(2, 3, alpha, R))
    assert alpha * math.sqrt(1 - R) == pytest.approx(1.1260, abs=5e-5)
    assert abs(state.coeffs[1]) ** 2 > 0.5  # |1> dominates once |0> drops out


def _locus_function(c, q, target):
    """C_q, or |C_q| - |C_{q+1}|, over the trailing axes of coefficients c."""
    if target is dq.LocusTarget.COEFFICIENT_ZERO:
        return c[q]
    return np.abs(c[q]) - np.abs(c[q + 1])


@pytest.mark.parametrize("R", [0.1, 0.5, 0.9])
def test_locus_solve_matches_sign_change_scan(R):
    # the former sampled solver as oracle: sign changes on 4800 alpha points in (0, 12]
    alpha_max, samples = 12.0, 4800
    grid = np.linspace(alpha_max / samples, alpha_max, samples)
    step = grid[1] - grid[0]
    for n in range(7):
        for m in range(9):
            c = dq.coefficients_grid(n, m, grid, R)
            for target in dq.LocusTarget:
                zero = target is dq.LocusTarget.COEFFICIENT_ZERO
                for q in range(n + 1 if zero else n):
                    f = _locus_function(c, q, target)
                    expected = grid[:-1][(f[:-1] * f[1:] < 0.0) | (f[:-1] == 0.0)]
                    try:
                        roots = np.array(dq.locus_solve(n, m, q, target, R, alpha_max))
                    except NoRootInBracket:
                        roots = np.array([])
                    assert roots.size == expected.size, (n, m, q, target)
                    for lo, r in zip(expected, roots):
                        assert lo - step <= r <= lo + 2 * step, (n, m, q, target)
                    if roots.size:
                        at = dq.coefficients_grid(n, m, roots, R)
                        resid = np.abs(_locus_function(at, q, target))
                        assert np.all(resid <= 1e-9 * np.abs(at).max(axis=0)), (n, m, q)


def test_locus_solve_no_root():
    with pytest.raises(NoRootInBracket):
        dq.locus_solve(1, 0, 1, dq.LocusTarget.COEFFICIENT_ZERO, 0.5, alpha_max=5.0)


def test_dqstate_normalization_contract():
    with pytest.raises(ValueError):
        dq.DQState(0j, np.array([0.8, 0.5]))
    st = dq.DQState.from_coeffs([0.8, 0.5], displacement=1j)
    assert np.vdot(st.coeffs, st.coeffs).real == pytest.approx(1.0, abs=1e-12)


def test_level_factor_past_float_factorial():
    # exact product wherever q! fits a float, log-gamma beyond (q >= 171), inf on overflow
    for q in range(171):
        ratio = np.array([0.3, 1.0, 7.0])
        exact = math.comb(200, q) * math.sqrt(math.factorial(q)) * np.power(ratio, q / 2.0)
        assert np.array_equal(dq._level_factor(200, q, ratio), exact)
    for q in (171, 200, 250):
        got = dq._level_factor(250, q, 0.3)
        want = mpmath.binomial(250, q) * mpmath.sqrt(mpmath.factorial(q)) * mpmath.mpf(0.3) ** (q / 2)
        assert float(got) == pytest.approx(float(want), rel=1e-11)
    assert dq._level_factor(400, 300, 0.5) == math.inf


def test_hermite_coefficient_overflow_is_non_finite():
    # C(400, k) C(300, k) k! leaves the float range: a numerical failure, not OverflowError
    with pytest.raises(NonFiniteResult):
        dq.coefficients_grid(400, 300, 1.0, 0.5)


@pytest.mark.parametrize("n", [7, 12])
def test_one_cell_last_block_keeps_grids_bit_identical(monkeypatch, n):
    # a 4097 x 1 grid ends in a one-cell block, whose norm numpy would sum pairwise
    from dqsim import nongauss, squeezing

    a_vals, r_val = np.linspace(0.05, 16.0, 4097), 0.5
    assert dq.row_blocks((4097, 1)) == [(0, 4097)]
    blocked = (squeezing.variance_x_map(n, 2, a_vals[:, None], [[r_val]]),
               nongauss.hsd_scan(n, 2, a_vals, [r_val]))
    monkeypatch.setattr(dq, "BLOCK_CELLS", 10**9)
    whole = (squeezing.variance_x_map(n, 2, a_vals[:, None], [[r_val]]),
             nongauss.hsd_scan(n, 2, a_vals, [r_val]))
    for b, w in zip(blocked, whole):
        assert np.array_equal(b, w)


def _mp_heralded(n, m, alpha_sq, R, eta_d=1):
    """60-digit p and, at eta_d = 1, the normalized u_0, else the diagonal of rho_bare / p, of
    the components u_l[q] of `mp_components`."""
    u = mp_components(n, m, alpha_sq, R, eta_d)
    with mpmath.workdps(60):
        p = mpmath.fsum(x**2 for row in u for x in row)
        if eta_d == 1:
            return p, np.array([float(x / mpmath.sqrt(p)) for x in u[0]])
        return p, np.array([float(mpmath.fsum(row[q] ** 2 for row in u) / p) for q in range(n + 1)])


_SWEEP = list(product([20, 50, 100, 150, 200, 300], [0, 6, 40, 100, 200], [0.5, 20, 400],
                      [0.3, 0.5, 0.97]))
# p lost its last digits to a subnormal prefactor R^n/(m! n!) e^(-chi) in the separate C_q
# route, and p(2, 150) = 8.2e-4, whose sum_q |C_q|^2 overflows a float; j! of H_{k,200} passes
# the float range at (200, 200), |y|^300 at (300, 0), and K/k! (eta_d R)^(k/2) underflows next to
# an H_{k,200} near 1e263 at (150, 200); b_q = (1-R)^(q/2) / sqrt(q!) underflows while K g_(n-q)
# stays large at the last three
_MUST_MATCH = [(150, 6, 20, 0.5), (150, 40, 400, 0.97), (2, 150, 400, 0.5), (200, 200, 20, 0.97),
               (300, 0, 400, 0.3), (150, 200, 20, 0.97), (200, 6, 0.5, 0.97), (300, 0, 20, 0.3),
               (300, 100, 400, 0.97)]


@pytest.mark.parametrize(
    "n, m, alpha_sq, R",
    [_SWEEP[i] for i in np.random.default_rng(33).choice(len(_SWEEP), 16, replace=False)]
    + _MUST_MATCH + [(300, 40, 20, 0.3)])
def test_build_dq_matches_mpmath_or_raises(n, m, alpha_sq, R):
    # a state is exact to rounding, or ZeroProbability where p is below the normal float range
    p_mp, c_mp = _mp_heralded(n, m, alpha_sq, R)
    try:
        state, p = dq.build_dq(_cfg(n, m, math.sqrt(alpha_sq), R))
    except ZeroProbability:
        assert (n, m, alpha_sq, R) not in _MUST_MATCH and p_mp < sys.float_info.min
        return
    assert p == pytest.approx(float(p_mp), rel=1e-10, abs=0)
    np.testing.assert_allclose(state.coeffs, c_mp, rtol=0, atol=1e-10)


@pytest.mark.parametrize("eta_d", [1.0, 0.3])
def test_realized_state_matches_mpmath_or_raises(eta_d):
    # the library path, without the ideal state first: K/k! (eta_d R)^(k/2) leaves the float
    # range next to an H_{k,m} near 1e263, so the kernel must be exact or raise
    cfg = _cfg(150, 200, math.sqrt(0.5), 0.3)
    try:
        rho, p = imperfections.mixture(dq.herald_terms(cfg, [eta_d]), 0, 1.0)
    except DQSimError:
        return
    p_mp, diag = _mp_heralded(150, 200, 0.5, 0.3, eta_d)
    if eta_d == 1:  # there _mp_heralded returns the normalized u_0, whose |.|^2 is the diagonal
        diag = np.abs(diag) ** 2
    assert p == pytest.approx(float(p_mp), rel=1e-10, abs=0)
    np.testing.assert_allclose(np.diag(rho).real, diag, rtol=0, atol=1e-10)


@pytest.mark.parametrize(
    "n, m, alpha_sq, R",
    [_SWEEP[i] for i in np.random.default_rng(32).choice(len(_SWEEP), 8, replace=False)])
def test_realized_probability_matches_mpmath_or_raises(n, m, alpha_sq, R):
    # a pure source at two detector efficiencies: p is exact to rounding, or ZeroProbability
    # where it lies below the normal float range; (300, 0, 0.5, 0.97) and (300, 0, 20, 0.97) have
    # b_q underflowing next to a large K g_(n-q)
    terms = dq.herald_terms(_cfg(n, m, math.sqrt(alpha_sq), R), [0.3, 0.9])
    prob = imperfections.realized_probability(terms, [1.0])[0][:, 0]
    for i, eta_d in enumerate([0.3, 0.9]):
        p_mp = _mp_heralded(n, m, alpha_sq, R, eta_d)[0]
        if p_mp < sys.float_info.min:
            with pytest.raises(ZeroProbability, match="fires with p below the normal float range"):
                imperfections.mixture(terms, i, 1.0)
        else:
            assert prob[i] == pytest.approx(float(p_mp), rel=1e-10, abs=0)


def test_realized_sums_at_n200_where_b_squared_underflows():
    # b_q^2 = (1 - R)^q / q! leaves the float range and |K g_k|^2 would overflow it, so a
    # convolution of the squared factors returns wrong sums here; the one pass over l does not
    cfg = _cfg(200, 1, math.sqrt(2), 0.5)
    c = dq.build_dq(cfg)[0].coeffs
    eta_d = [0.3, 0.9, 0.974, 1.0]
    terms = dq.herald_terms(cfg, eta_d)
    prob, prob_fid = imperfections.realized_probability(terms, [1.0], c)
    expected_p = [1.73491179106e-11, 1.28336100940e-41, 1.98512161895e-46, 3.36517598524e-48]
    expected_f = [6.97315499958e-23, 7.02135138570e-3, 0.520311087047, 1.0]
    assert prob[:, 0] == pytest.approx(expected_p, rel=1e-11, abs=0)
    assert prob_fid[:, 0] / prob[:, 0] == pytest.approx(expected_f, rel=1e-11, abs=0)
    for i, u in enumerate(imperfections.components(terms)):
        assert prob[i, 0] == pytest.approx(np.sum(np.abs(u) ** 2), rel=1e-14, abs=0)
        overlap = np.sum(np.abs(u @ c.conj()) ** 2)
        assert prob_fid[i, 0] == pytest.approx(overlap, rel=1e-14, abs=0)
    for i in (1, 3):  # eta_d = 0.9 and 1
        p_mp, _ = _mp_heralded(200, 1, 2, 0.5, eta_d[i])
        assert prob[i, 0] == pytest.approx(float(p_mp), rel=1e-10, abs=0)


def test_build_dq_memory_at_large_n():
    # p(20000, 1) ~ 1e-6016 lies below the float range; the kernel finds it in O(n) floats
    tracemalloc.start()
    try:
        with pytest.raises(ZeroProbability, match="success probability underflows"):
            dq.build_dq(_cfg(20000, 1, 1.0, 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
