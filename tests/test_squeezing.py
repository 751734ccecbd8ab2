import math

import numpy as np
import pytest

from dqsim import dq, fock, squeezing
from dqsim.errors import IndexOutOfRange


def _dense_moment(state, l, s, dim=45):
    """Oracle: expectation on the expanded vector with explicit matrices."""
    t = fock.Truncation(dim)
    v = dq.to_fock(state, t).amps
    a = fock.annihilation_matrix(t)
    op = np.linalg.matrix_power(a.conj().T, l) @ np.linalg.matrix_power(a, s)
    return complex(np.vdot(v, op @ v))


def _random_states(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        size = int(rng.integers(1, 6))
        c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        beta = complex(rng.normal(scale=0.8), rng.normal(scale=0.8))
        out.append(dq.DQState.from_coeffs(c, displacement=beta))
    return out


def test_moment_displaced_vacuum_mean():
    st = dq.DQState.from_coeffs([1.0], displacement=0.4 - 0.9j)
    assert squeezing.moment(st, 0, 1) == pytest.approx(0.4 - 0.9j, abs=1e-14)


def test_moment_fock_one_number():
    st = dq.DQState.from_coeffs([0.0, 1.0], displacement=0.0)
    assert squeezing.moment(st, 1, 1) == pytest.approx(1.0, abs=1e-14)


def test_moment_against_dense_oracle():
    for st in _random_states(10, seed=5):
        for l, s in [(0, 1), (1, 0), (0, 2), (1, 1), (2, 1), (2, 2), (0, 4)]:
            got = squeezing.moment(st, l, s)
            want = _dense_moment(st, l, s)
            assert got == pytest.approx(want, abs=1e-9)


def test_moment_order_cap():
    st = dq.DQState.from_coeffs([1.0])
    with pytest.raises(IndexOutOfRange):
        squeezing.moment(st, 3, 2)


def test_quadratures_reference_states():
    coh = dq.DQState.from_coeffs([1.0], displacement=1.1 + 0.3j)
    rep = squeezing.quadratures(coh)
    assert rep.var_x == pytest.approx(0.5, abs=1e-12)
    assert rep.var_p == pytest.approx(0.5, abs=1e-12)
    assert rep.mean_x == pytest.approx(math.sqrt(2) * 1.1, abs=1e-12)

    one = dq.DQState.from_coeffs([0.0, 1.0], displacement=-0.7j)
    rep = squeezing.quadratures(one)
    assert rep.var_x == pytest.approx(1.5, abs=1e-12)
    assert rep.var_p == pytest.approx(1.5, abs=1e-12)


def test_quadratures_optimal_qubit():
    st = dq.DQState.from_coeffs([math.sqrt(3) / 2, 0.5], displacement=0.9)
    rep = squeezing.quadratures(st)
    assert rep.var_x == pytest.approx(0.3750, abs=5e-4)
    assert rep.min_var == rep.var_x


def test_displacement_invariance_of_variances():
    rng = np.random.default_rng(31)
    for st in _random_states(8, seed=13):
        extra = complex(rng.normal(), rng.normal())
        shifted = dq.DQState(st.displacement + extra, st.coeffs.copy(), st.config)
        a = squeezing.quadratures(st)
        b = squeezing.quadratures(shifted)
        assert abs(a.var_x - b.var_x) < 1e-10
        assert abs(a.var_p - b.var_p) < 1e-10


def test_uncertainty_product():
    for st in _random_states(12, seed=23):
        rep = squeezing.quadratures(st)
        assert rep.var_x * rep.var_p >= 0.25 - 1e-9


def test_variance_map_matches_quadratures():
    n, m = 2, 1
    a_vals = np.array([0.7, 5.45, 11.0])
    r_vals = np.array([0.3, 0.8175])
    grid = squeezing.variance_x_map(n, m, a_vals[:, None], r_vals[None, :])
    assert grid.shape == (3, 2)
    for i, a2 in enumerate(a_vals):
        for j, R in enumerate(r_vals):
            state, _ = dq.build_dq(dq.CMConfig(n, m, complex(math.sqrt(a2)), float(R)))
            rep = squeezing.quadratures(state)
            assert grid[i, j] == pytest.approx(rep.var_x, abs=1e-12)


@pytest.mark.parametrize("block_cells", [1, 1000, squeezing.BLOCK_CELLS])
@pytest.mark.parametrize("n, m", [(1, 0), (2, 3), (4, 4)])
def test_variance_map_blocks_equal_whole_grid(monkeypatch, n, m, block_cells):
    # row blocks, ragged last block included, give the single-block values bit for bit;
    # alpha = 0 with m > n is the documented NaN row
    a_vals = np.arange(0.0, 30.0, 0.25)
    r_vals = np.arange(0.01, 0.99, 0.0025)
    monkeypatch.setattr(squeezing, "BLOCK_CELLS", 10**9)
    whole = squeezing.variance_x_map(n, m, a_vals[:, None], r_vals[None, :])
    monkeypatch.setattr(squeezing, "BLOCK_CELLS", block_cells)
    assert len(squeezing.row_blocks(whole.shape)) > 1
    blocked = squeezing.variance_x_map(n, m, a_vals[:, None], r_vals[None, :])
    assert np.array_equal(blocked, whole, equal_nan=True)
    assert np.isnan(whole[0]).all() == (m > n)
    # a broadcast leading axis and a 1-d grid take the same path
    assert np.array_equal(squeezing.variance_x_map(n, m, 2.5, r_vals[None, :]), whole[10:11])
    assert np.array_equal(squeezing.variance_x_map(n, m, a_vals, 0.01), whole[:, 0],
                          equal_nan=True)


def test_bare_moment_batch_axes_against_dense_oracle():
    # coefficients on the leading axis, a (2, 3) batch behind it
    rng = np.random.default_rng(41)
    c = rng.standard_normal((5, 2, 3)) + 1j * rng.standard_normal((5, 2, 3))
    a = fock.annihilation_matrix(fock.Truncation(5))
    for u, v in [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 1), (0, 4), (3, 3), (5, 0)]:
        got = squeezing.bare_moment(c, u, v)
        assert got.shape == (2, 3)
        op = np.linalg.matrix_power(a.conj().T, u) @ np.linalg.matrix_power(a, v)
        for idx in np.ndindex(2, 3):
            vec = c[(slice(None),) + idx]
            assert got[idx] == pytest.approx(complex(np.vdot(vec, op @ vec)), abs=1e-9)


def test_optimizer_reproduces_qutrit_cell():
    rec = squeezing.optimize_cm_squeezing(2, 1)
    assert rec.min_var == pytest.approx(0.2753, abs=5e-4)
    assert rec.alpha_sq == pytest.approx(5.45, abs=0.06)
    assert rec.R == pytest.approx(0.8175, abs=0.0025)
    assert not rec.boundary_hit


def test_optimizer_not_above_coarse_grid():
    rec = squeezing.optimize_cm_squeezing(1, 1)
    a_vals = np.arange(0.05, 30.0, 0.5)
    r_vals = np.arange(0.05, 0.99, 0.02)
    V = squeezing.variance_x_map(1, 1, a_vals[:, None], r_vals[None, :])
    assert rec.min_var <= np.nanmin(V) + 1e-9


def _captured_objective(monkeypatch, module, run):
    """(fun, x0, options) of the one optimizer run that run() makes through module.minimize."""
    calls = []
    original = module.minimize

    def record(fun, x0, **options):
        calls.append((fun, np.array(x0), options))
        return original(fun, x0, **options)

    monkeypatch.setattr(module, "minimize", record)
    run()
    (call,) = calls
    return call


def _assert_matches_scipy_nelder_mead(fun, x0, options):
    from scipy.optimize import minimize as scipy_minimize

    ours = squeezing.minimize(fun, x0, **options)
    ref = scipy_minimize(fun, x0, method="Nelder-Mead", options=options)
    assert np.array_equal(ours.x, ref.x)
    assert ours.fun == ref.fun
    assert (ours.nfev, ours.nit, ours.success) == (ref.nfev, ref.nit, ref.success)
    return ours


@pytest.mark.parametrize("n,m", [(2, 1), (4, 3), (3, 0), (1, 2)])
def test_minimize_matches_scipy_on_cm_objective(monkeypatch, n, m):
    fun, x0, options = _captured_objective(
        monkeypatch, squeezing, lambda: squeezing.optimize_cm_squeezing(n, m)
    )
    assert _assert_matches_scipy_nelder_mead(fun, x0, options).success


@pytest.mark.parametrize("n,m", [(1, 1), (3, 2)])
def test_minimize_matches_scipy_on_hsd_objective(monkeypatch, n, m):
    from dqsim import nongauss

    fun, x0, options = _captured_objective(monkeypatch, nongauss, lambda: nongauss.hsd_max(n, m))
    assert _assert_matches_scipy_nelder_mead(fun, x0, options).success


def _rosenbrock(x):
    return np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2)


def test_minimize_matches_scipy_from_zero_coordinate():
    # x0[0] == 0 takes the 0.00025 start-vertex branch
    res = _assert_matches_scipy_nelder_mead(
        _rosenbrock, np.array([0.0, 1.5]), {"xatol": 1e-8, "fatol": 1e-12, "maxiter": 2000}
    )
    assert res.success
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-6)


def test_minimize_maxiter_cap_reports_no_success():
    res = _assert_matches_scipy_nelder_mead(
        _rosenbrock, np.array([0.0, 1.5, -0.5]), {"xatol": 1e-8, "fatol": 1e-12, "maxiter": 40}
    )
    assert not res.success and res.nit == 40


@pytest.mark.parametrize("n", range(1, 13))
def test_fock_shift_bisection_matches_bounded_brent(n):
    from scipy.optimize import minimize_scalar

    shifted, x1, lo, hi = squeezing._fock_shift_brackets(n)

    def lam(t):
        return np.linalg.eigvalsh(shifted(t))[..., 0]

    t = squeezing._bisect_stationary(shifted, x1, lo, hi, 1e-10)
    values = lam(t)
    for i in range(t.size):
        ref = minimize_scalar(lambda s: float(lam(s)), bounds=(lo[i], hi[i]), method="bounded",
                              options={"xatol": 1e-10})
        assert values[i] == pytest.approx(ref.fun, abs=1e-14)
        # Brent compares values, flat to rounding within ~1e-7 of the minimum
        assert t[i] == pytest.approx(ref.x, abs=3e-7)
    # the minimum is stationary: t is the <X> of the lowest eigenvector
    c = np.linalg.eigh(shifted(t))[1][..., 0]
    np.testing.assert_allclose(np.einsum("ki,ij,kj->k", c, x1, c), t, rtol=0, atol=1e-9)
    if n == 1:  # optimal qubit sqrt(3)/2 |0> + 1/2 |1>, <X> = sqrt(6)/4
        assert t[0] == pytest.approx(math.sqrt(6.0) / 4.0, abs=1e-10)


def test_fock_superposition_known_optima():
    v1, c1 = squeezing.optimize_fock_superposition(1)
    assert v1 == pytest.approx(0.3750, abs=1e-4)
    assert abs(c1[0]) ** 2 == pytest.approx(0.75, abs=1e-3)

    v2, c2 = squeezing.optimize_fock_superposition(2)
    assert v2 == pytest.approx(0.2753, abs=1e-4)
    assert abs(c2[0]) == pytest.approx(0.9530, abs=2e-3)
    assert abs(c2[1]) < 1e-4
    assert abs(c2[2]) == pytest.approx(0.3030, abs=2e-3)
    assert c2[0] * c2[2] < 0


def _x_blocks(n):
    """P X P and P X^2 P on |0>..|n>, from dense `fock.annihilation_matrix`."""
    a = fock.annihilation_matrix(fock.Truncation(n + 2)).real
    x = (a + a.T) / math.sqrt(2.0)
    return x[: n + 1, : n + 1], (x @ x)[: n + 1, : n + 1]


def _fine_lambda_min_scan(n):
    """min_t lambda_min(P (X - t)^2 P) by a 20001-point scan over t in [-4.5, 4.5]
    (covering every <X> on |0>..|12>), zoomed to +/- one step around the best."""
    x1, x2 = _x_blocks(n)

    def lam(ts):
        t = ts[:, None, None]
        return np.linalg.eigvalsh(x2 - 2.0 * t * x1 + t * t * np.eye(n + 1))[:, 0]

    ts = np.linspace(-4.5, 4.5, 20001)
    t0 = ts[np.argmin(lam(ts))]
    step = ts[1] - ts[0]
    return float(lam(np.linspace(t0 - step, t0 + step, 2001)).min())


@pytest.mark.parametrize("n", range(1, 13))
def test_fock_superposition_matches_fine_scan(n):
    v, c = squeezing.optimize_fock_superposition(n)
    assert v == pytest.approx(_fine_lambda_min_scan(n), abs=1e-12)
    # the returned vector is unit-norm and really has that variance
    x1, x2 = _x_blocks(n)
    assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)
    assert c @ x2 @ c - (c @ x1 @ c) ** 2 == pytest.approx(v, abs=1e-12)


def test_fock_superposition_lower_bounds_heralded():
    # the unconstrained optimum can never be worse than the heralded one
    for n in (1, 2, 3):
        fv, _ = squeezing.optimize_fock_superposition(n)
        rec = squeezing.optimize_cm_squeezing(n, 1)
        assert fv <= rec.min_var + 1e-6


def test_single_photon_locus_formulas_m123():
    # the loci for m = 0..6 pin the variance at exactly 3/8
    for m in range(7):
        for R in (0.15, 0.4, 0.65, 0.9):
            for a2 in squeezing.n1_optimal_alpha_sq(m, R):
                if a2 <= 0:
                    continue
                v = float(squeezing.variance_x_map(1, m, a2, R))
                assert v == pytest.approx(0.375, abs=1e-9)


def test_single_photon_locus_formula_values():
    # plain arithmetic check of the evaluator, including the m = 4 slope 4m - 3
    R = 0.5
    plus, minus = squeezing.n1_optimal_alpha_sq(4, R)
    d = math.sqrt((3 + 13 * R) / (1 - R))
    assert plus == pytest.approx((math.sqrt(3) + d) ** 2 / (4 * R), rel=1e-12)
    assert minus == pytest.approx((math.sqrt(3) - d) ** 2 / (4 * R), rel=1e-12)
    a, b = squeezing.n1_optimal_alpha_sq(0, 0.25)
    assert a == b == pytest.approx(12.0)


def test_vacuum_detection_locus_variances():
    for n, expected in [(1, 0.3750), (2, 0.3223), (3, 0.2913), (4, 0.2700)]:
        vals = [squeezing.m0_locus_variance(n, R) for R in (0.2, 0.5, 0.8)]
        assert max(vals) - min(vals) < 1e-10  # depends only on |alpha|^2 R
        assert vals[0] == pytest.approx(expected, abs=5e-4)
