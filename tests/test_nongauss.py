import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from dqsim import dq, fock, nongauss, squeezing
from dqsim.errors import GridTooCoarse, NonPhysicalCovariance


def test_match_reference_coherent():
    t = fock.Truncation(35)
    rho = fock.coherent(1.2 + 0.4j, t).density()
    ref = nongauss.match_reference(rho)
    assert ref.gamma == pytest.approx(1.2 + 0.4j, abs=1e-8)
    assert ref.r == pytest.approx(0.0, abs=1e-8)
    assert ref.nbar == pytest.approx(0.0, abs=1e-8)


def test_match_reference_thermal():
    ref = nongauss.match_reference(fock.thermal_density(0.5, fock.Truncation(60)))
    assert abs(ref.gamma) < 1e-10
    assert ref.r == pytest.approx(0.0, abs=1e-8)
    assert ref.nbar == pytest.approx(0.5, abs=1e-6)


def test_match_reference_fock_one():
    ref = nongauss.match_reference(fock.fock_state(1, fock.Truncation(35)).density())
    assert abs(ref.gamma) < 1e-12
    assert ref.r == pytest.approx(0.0, abs=1e-10)
    assert ref.nbar == pytest.approx(1.0, abs=1e-10)


def test_reference_roundtrip_covariance():
    # construct a displaced squeezed thermal state, re-extract its parameters
    rng = np.random.default_rng(17)
    for _ in range(6):
        ref = nongauss.GaussianRef(
            gamma=complex(rng.normal(scale=0.6), rng.normal(scale=0.6)),
            r=float(rng.uniform(0.0, 0.45)),
            phi=float(rng.uniform(-math.pi, math.pi)),
            nbar=float(rng.uniform(0.0, 0.8)),
        )
        t = fock.Truncation(70)
        tau = nongauss.gaussian_density(ref, t)
        back = nongauss.match_reference(tau)
        np.testing.assert_allclose(back.covariance(), ref.covariance(), atol=1e-8)
        assert back.gamma == pytest.approx(ref.gamma, abs=1e-8)


def test_nonphysical_covariance_rejected():
    with pytest.raises(NonPhysicalCovariance):
        nongauss._ref_from_moments(0j, 0.3 + 0j, 0.0)


def test_hsd_gaussian_inputs_vanish():
    t = fock.Truncation(40)
    assert nongauss.hsd(fock.coherent(0.9, t).density()) == pytest.approx(0.0, abs=1e-6)
    assert nongauss.hsd(fock.thermal_density(0.4, fock.Truncation(80))) == pytest.approx(
        0.0, abs=1e-6
    )


def test_hsd_fock_states_exact_values():
    # delta(|1>) = 5/12 and delta(|2>) = 61/135; the references are thermal
    assert nongauss.hsd_of_coeffs([0, 1]) == pytest.approx(5 / 12, abs=1e-9)
    assert nongauss.hsd_of_coeffs([0, 0, 1]) == pytest.approx(0.5 * (1 + 1 / 5 - 8 / 27), abs=1e-9)
    assert nongauss.hsd(fock.fock_state(1, fock.Truncation(40)).density()) == pytest.approx(
        5 / 12, abs=1e-9
    )


def _dense_hsd(c, dim):
    padded = np.zeros(dim, dtype=complex)
    padded[: c.size] = c
    return nongauss.hsd(fock.FockVector(padded).density())


def test_hsd_fast_path_matches_general():
    # complex superpositions of |0>..|n> for every n <= 8 and heralded
    # coefficient vectors, against the dense-Fock measure at two cutoffs
    rng = np.random.default_rng(3)
    vectors = [rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1) for n in range(9)]
    for n, m, a2, R in [(2, 1, 5.45, 0.8175), (4, 1, 6.65, 0.7275), (3, 5, 12.0, 0.35),
                        (8, 2, 20.0, 0.6)]:
        vectors.append(dq.coefficients_grid(n, m, math.sqrt(a2), R))
    for c in vectors:
        c = c / np.linalg.norm(c)
        dense = _dense_hsd(c, 180)
        assert _dense_hsd(c, 220) == pytest.approx(dense, abs=1e-10)
        assert nongauss.hsd_of_coeffs(c) == pytest.approx(dense, abs=1e-10)


def test_hsd_displacement_invariance():
    c = np.array([0.6, -0.64, 0.48])
    c = c / np.linalg.norm(c)
    base = nongauss.hsd_of_coeffs(c)
    t = fock.Truncation(60)
    displaced = dq.to_fock(dq.DQState.from_coeffs(c, displacement=0.8 - 0.5j), t)
    assert nongauss.hsd(displaced.density()) == pytest.approx(base, abs=1e-6)


def test_hsd_bounded_by_half():
    rng = np.random.default_rng(29)
    for _ in range(20):
        c = rng.standard_normal(int(rng.integers(2, 5)))
        val = nongauss.hsd_of_coeffs(c)
        assert -1e-9 <= val <= 0.5 + 1e-6


def test_hsd_scan_shape_and_consistency():
    a_vals = np.array([0.5, 2.0])
    r_vals = np.array([0.3, 0.6, 0.9])
    grid = nongauss.hsd_scan(1, 0, a_vals, r_vals)
    assert grid.shape == (2, 3)
    for i, a2 in enumerate(a_vals):
        for j, R in enumerate(r_vals):
            c = dq.coefficients_grid(1, 0, math.sqrt(a2), R)
            assert grid[i, j] == pytest.approx(nongauss.hsd_of_coeffs(c), abs=1e-12)


@given(
    n=st.integers(0, 8),
    m=st.integers(0, 12),
    a_vals=st.lists(st.floats(0.05, 30.0), min_size=1, max_size=4),
    r_vals=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4),
)
def test_hsd_scan_bounded_property(n, m, a_vals, r_vals):
    grid = nongauss.hsd_scan(n, m, a_vals, r_vals)
    assert grid.shape == (len(a_vals), len(r_vals))
    assert np.all(np.isfinite(grid))
    assert np.all(grid >= -1e-12) and np.all(grid <= 0.5 + 1e-12)


def test_wigner_reference_points():
    st = dq.DQState.from_coeffs([1.0], displacement=1.1 + 0.4j)
    assert nongauss.wigner_closed(st, 1.1 + 0.4j) == pytest.approx(2 / math.pi, rel=1e-12)
    one = dq.DQState.from_coeffs([0, 1.0], displacement=0.8 - 0.2j)
    assert nongauss.wigner_closed(one, 0.8 - 0.2j) == pytest.approx(-2 / math.pi, rel=1e-12)


def test_wigner_oracle_reference_points():
    t = fock.Truncation(30)
    vac = fock.fock_state(0, t).density()
    assert nongauss.wigner_oracle(vac, 0.0) == pytest.approx(2 / math.pi, rel=1e-10)
    th = fock.thermal_density(0.7, fock.Truncation(60))
    assert nongauss.wigner_oracle(th, 0.0) == pytest.approx(
        (2 / math.pi) / (2 * 0.7 + 1), rel=1e-8
    )


def test_wigner_closed_matches_oracle_pointwise():
    rng = np.random.default_rng(41)
    for n, m in [(1, 0), (1, 2), (2, 1), (3, 2)]:
        alpha = float(rng.uniform(0.5, 1.8))
        R = float(rng.uniform(0.2, 0.8))
        state, _ = dq.build_dq(dq.CMConfig(n, m, complex(alpha), R))
        t = fock.Truncation.auto(alpha, n, m)
        rho = dq.to_fock(state, t).density()
        for _ in range(6):
            beta = complex(
                state.displacement.real + rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)
            )
            closed = nongauss.wigner_closed(state, beta)
            oracle = nongauss.wigner_oracle(rho, beta)
            assert closed == pytest.approx(oracle, abs=1e-7)
    # far from the state: the n = 4 benchmark state at beta = -3
    cfg = dq.CMConfig(4, 1, complex(math.sqrt(6.65)), 0.7275)
    state, _ = dq.build_dq(cfg)
    rho = dq.to_fock(state, fock.Truncation.auto(cfg.alpha, cfg.n, cfg.m)).density()
    assert nongauss.wigner_oracle(rho, -3.0) == pytest.approx(
        nongauss.wigner_closed(state, -3.0), abs=1e-7
    )


def test_wigner_oracle_array_matches_pointwise():
    state, _ = dq.build_dq(dq.CMConfig(2, 1, complex(1.3), 0.55))
    rho = dq.to_fock(state, fock.Truncation(45)).density()
    grid = nongauss.PhaseGrid.centered(state.displacement, 1.5, 5)
    vals = nongauss.wigner_oracle(rho, grid.mesh())
    assert vals.shape == (5, 5)
    for i, x in enumerate(grid.xs):
        for j, p in enumerate(grid.ps):
            assert vals[i, j] == pytest.approx(
                nongauss.wigner_oracle(rho, complex(x, p)), abs=1e-12
            )
    cfg = dq.CMConfig(4, 1, complex(math.sqrt(6.65)), 0.7275)
    state, _ = dq.build_dq(cfg)
    rho = dq.to_fock(state, fock.Truncation.auto(cfg.alpha, cfg.n, cfg.m)).density()
    grid = nongauss.PhaseGrid(np.array([-3.0, -2.0]), np.array([0.0, 0.5]))
    np.testing.assert_allclose(
        nongauss.wigner_oracle(rho, grid.mesh()),
        nongauss.wigner_closed(state, grid.mesh()),
        rtol=0,
        atol=1e-7,
    )


@settings(max_examples=200)
@given(
    st.integers(0, 4),
    st.integers(0, 4),
    st.floats(0.5, 16.0),
    st.floats(0.1, 0.9),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
def test_wigner_oracle_matches_closed_form_property(n, m, alpha_sq, R, u, v):
    cfg = dq.CMConfig(n, m, complex(math.sqrt(alpha_sq)), R)
    state, _ = dq.build_dq(cfg)
    rho = dq.to_fock(state, fock.Truncation.auto(cfg.alpha, n, m)).density()
    grid = nongauss.default_grid(state, 5)
    beta = complex(
        grid.xs[0] + u * (grid.xs[-1] - grid.xs[0]), grid.ps[0] + v * (grid.ps[-1] - grid.ps[0])
    )
    assert nongauss.wigner_oracle(rho, beta) == pytest.approx(
        nongauss.wigner_closed(state, beta), abs=1e-10
    )


def test_wigner_oracle_large_dimension():
    # at dim 200, 199! overflows a float; the folded recurrence never forms it
    t = fock.Truncation(150)
    for k in (0, 1, 50, 149):
        rho = fock.fock_state(k, t).density()
        assert nongauss.wigner_oracle(rho, 0.0) == pytest.approx(
            (2 / math.pi) * (-1) ** k, abs=1e-12
        )
    g = 6 + 3j
    rho = fock.coherent(g, fock.Truncation(200)).density()
    for beta in (g, g + 0.5):
        assert nongauss.wigner_oracle(rho, beta) == pytest.approx(
            (2 / math.pi) * math.exp(-2 * abs(beta - g) ** 2), abs=1e-12
        )


def test_wigner_closed_normalization():
    state, _ = dq.build_dq(dq.CMConfig(2, 1, complex(math.sqrt(5.45)), 0.8175))
    grid = nongauss.default_grid(state, 201)
    W = nongauss.wigner_closed(state, grid.mesh())
    integral = simpson(simpson(W, x=grid.ps, axis=1), x=grid.xs)
    assert integral == pytest.approx(1.0, abs=1e-3)


def test_wigner_oracle_normalization_small_state():
    state, _ = dq.build_dq(dq.CMConfig(1, 1, complex(0.9), 0.5))
    t = fock.Truncation(25)
    rho = dq.to_fock(state, t).density()
    grid = nongauss.PhaseGrid.centered(state.displacement, 5.0, 61)
    vals = nongauss.wigner_oracle(rho, grid.mesh())
    integral = simpson(simpson(vals, x=grid.ps, axis=1), x=grid.xs)
    assert integral == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("block_cells", [1, 1000, 2**14])
def test_negativity_blocks_equal_whole_grid(monkeypatch, block_cells):
    # the blocked |W| that the edge check and Simpson sums see is the whole-grid one
    state, _ = dq.build_dq(dq.CMConfig(3, 1, complex(math.sqrt(6.0)), 0.765))
    grid = nongauss.default_grid(state, 401)
    seen = []
    simpson2d = nongauss._simpson2d
    monkeypatch.setattr(nongauss, "_simpson2d", lambda v, *a: seen.append(v) or simpson2d(v, *a))
    monkeypatch.setattr(squeezing, "BLOCK_CELLS", block_cells)
    value = nongauss.wigner_negativity(state, grid)
    assert np.array_equal(seen[0], np.abs(nongauss.wigner_closed(state, grid.mesh())))
    monkeypatch.setattr(squeezing, "BLOCK_CELLS", 10**9)
    assert nongauss.wigner_negativity(state, grid) == value


def test_negativity_gaussian_state_zero():
    st = dq.DQState.from_coeffs([1.0], displacement=0.9 + 0.2j)
    assert nongauss.wigner_negativity(st) == pytest.approx(0.0, abs=1e-4)


def test_negativity_single_photon_self_consistency():
    # closed-form integration against the displaced-parity integration
    st = dq.DQState.from_coeffs([0, 1.0], displacement=0.5)
    grid = nongauss.PhaseGrid.centered(0.5 + 0j, 5.5, 61)
    closed_vals = nongauss.wigner_closed(st, grid.mesh())
    rho = dq.to_fock(st, fock.Truncation(30)).density()
    oracle_vals = nongauss.wigner_oracle(rho, grid.mesh())
    closed_i = simpson(simpson(np.abs(closed_vals), x=grid.ps, axis=1), x=grid.xs)
    oracle_i = simpson(simpson(np.abs(oracle_vals), x=grid.ps, axis=1), x=grid.xs)
    assert closed_i == pytest.approx(oracle_i, abs=1e-4)


@pytest.mark.parametrize("nx, np_", [(5, 9), (41, 21), (201, 401)])
def test_simpson_weights_match_scipy(nx, np_):
    rng = np.random.default_rng(nx)
    xs = np.linspace(-3.7, 5.2, nx)
    ps = np.linspace(10.0, 10.5, np_)
    vals = np.exp(-0.3 * xs[:, None] ** 2) * np.cos(ps[None, :]) + rng.random((nx, np_))
    ref = simpson(simpson(vals, x=ps, axis=1), x=xs)
    assert nongauss._simpson2d(vals, xs, ps) == pytest.approx(ref, rel=1e-13, abs=1e-13)


def test_simpson_weights_reject_even_or_uneven_axes():
    with pytest.raises(ValueError, match="odd"):
        nongauss._simpson_weights(np.linspace(0.0, 1.0, 8))
    with pytest.raises(ValueError, match="uniformly"):
        nongauss._simpson_weights(np.array([0.0, 0.1, 0.3, 0.4, 0.5]))


def test_negativity_needs_4k_plus_1_points_on_both_axes():
    # 4k + 3 points on ps leave an even-length axis after the coarse halving
    st = dq.DQState.from_coeffs([0, 1.0])
    grid = nongauss.PhaseGrid(np.linspace(-6.0, 6.0, 201), np.linspace(-6.0, 6.0, 203))
    with pytest.raises(ValueError, match="4k\\+1"):
        nongauss.wigner_negativity(st, grid)


def test_negativity_nonnegative_and_grid_checks():
    st = dq.DQState.from_coeffs([0, 1.0])
    val = nongauss.wigner_negativity(st, nongauss.default_grid(st, 401))
    assert val >= -1e-4
    with pytest.raises(GridTooCoarse):
        nongauss.wigner_negativity(st, nongauss.PhaseGrid.centered(0j, 6.0, 41))
    with pytest.raises(GridTooCoarse):
        # window far too small to cover the support
        nongauss.wigner_negativity(st, nongauss.PhaseGrid.centered(0j, 1.5, 201))


def test_default_grid_covers_support():
    state, _ = dq.build_dq(dq.CMConfig(2, 1, complex(math.sqrt(5.45)), 0.8175))
    grid = nongauss.default_grid(state, 201)
    W = nongauss.wigner_closed(state, grid.mesh())
    edge = max(
        np.abs(W[0, :]).max(),
        np.abs(W[-1, :]).max(),
        np.abs(W[:, 0]).max(),
        np.abs(W[:, -1]).max(),
    )
    assert edge < 1e-7 * np.abs(W).max()


def test_hsd_nan_cells_without_warning():
    # alpha = 0 with m > n heralds nothing: NaN, as variance_x_map gives, and
    # no RuntimeWarning (the test suite turns those into errors)
    a_vals, r_vals = np.array([0.0, 1.0]), np.array([0.2, 0.8])
    grid = nongauss.hsd_scan(1, 2, a_vals, r_vals)
    assert np.isnan(grid[0]).all() and np.isfinite(grid[1]).all()
    assert np.array_equal(
        np.isnan(grid), np.isnan(squeezing.variance_x_map(1, 2, a_vals[:, None], r_vals))
    )
    assert math.isnan(nongauss.hsd_of_coeffs(np.zeros(3)))
