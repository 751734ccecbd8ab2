import dataclasses
import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqsim import dq, fock, squeezing
from dqsim.errors import IndexOutOfRange
from dqsim.polynomials import hermite2


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


def _mp_quadratures(state):
    """(Var X, Var P, min_var, mean X) at 50 digits from the displaced moments of the same
    float coefficients, normalized, and beta."""
    with mpmath.workdps(50):
        c = [mpmath.mpc(complex(z)) for z in state.coeffs]
        norm = mpmath.sqrt(mpmath.fsum(abs(z) ** 2 for z in c))
        c = [z / norm for z in c]
        beta = mpmath.mpc(complex(state.displacement))

        def bare(u, v):
            return mpmath.fsum(mpmath.conj(c[k + u]) * c[k + v] * mpmath.sqrt(
                mpmath.factorial(k + u) * mpmath.factorial(k + v)) / mpmath.factorial(k)
                for k in range(len(c) - max(u, v)))

        a1 = beta + bare(0, 1)
        a2 = beta**2 + 2 * beta * bare(0, 1) + bare(0, 2)
        n1 = abs(beta) ** 2 + 2 * mpmath.re(mpmath.conj(beta) * bare(0, 1)) + mpmath.re(bare(1, 1))
        central, spread = a2 - a1**2, n1 - abs(a1) ** 2
        sxx, spp = spread + 0.5 + mpmath.re(central), spread + 0.5 - mpmath.re(central)
        sxp = mpmath.im(central)
        min_var = (sxx + spp) / 2 - mpmath.sqrt(((sxx - spp) / 2) ** 2 + sxp**2)
        return [float(v) for v in (sxx, spp, min_var, mpmath.sqrt(2) * mpmath.re(a1))]


@pytest.mark.parametrize("n, m, alpha_sq, R", [
    (4, 3, 25.0, 0.95), (2, 1, 30.0, 0.9), (2, 0, 25.0, 0.95), (3, 1, 20.0, 0.8), (4, 0, 25.0, 0.9),
])
def test_quadratures_match_mpmath_at_large_displacement(n, m, alpha_sq, R):
    # |beta|^2 = |alpha|^2 R of 16-27: the beta-expanded moments cancel |beta|^2 in the variances
    # and were off by 100-160 eps here; the bare moments stay within 4 eps
    state, _ = dq.build_dq(dq.CMConfig(n, m, complex(math.sqrt(alpha_sq)), R))
    rep = squeezing.quadratures(state)
    want = _mp_quadratures(state)
    for got, ref in zip((rep.var_x, rep.var_p, rep.min_var, rep.mean_x), want):
        assert abs(got - ref) <= 8 * np.finfo(float).eps * max(1.0, abs(ref))


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


def _variance_oracle(n, m, alpha_sq, R):
    """Var X as one whole-grid numpy evaluation, the rounding both kernels must keep.

    The coefficients are _level_factor * hermite2 over the whole grid (a
    0-d input stays in numpy scalars), the norm is np.sum over the levels,
    cells whose norm is not positive and finite get NaN coefficients, and
    the moments are variance_of_coeffs'.
    """
    alpha_sq, R = np.asarray(alpha_sq, float), np.asarray(R, float)
    x = np.sqrt(alpha_sq) * np.sqrt(1.0 - R)
    ratio = (1.0 - R) / R
    c = np.array([dq._level_factor(n, q, ratio) * hermite2(n - q, m, x, x) for q in range(n + 1)])
    s = np.sum(c * c, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        c = np.where((s > 0) & (s < np.inf), c / np.sqrt(s), np.nan)
    return squeezing.variance_of_coeffs(c)


_alpha_sq = st.one_of(st.just(0.0), st.floats(0.0, 30.0))
_reflectivity = st.floats(0.01, 0.99)


@settings(max_examples=400)
@given(n=st.integers(0, 6), m=st.integers(0, 6), alpha_sq=_alpha_sq, R=_reflectivity)
def test_variance_point_equals_oracle_bit_for_bit(n, m, alpha_sq, R):
    # the Nelder-Mead objective's float kernel against the 0-d numpy evaluation
    want = _variance_oracle(n, m, alpha_sq, R)
    for got in (squeezing._variance_point(n, m, alpha_sq, R),
                squeezing.variance_x_map(n, m, alpha_sq, R)):
        assert got == want or (math.isnan(got) and math.isnan(want))


def _grid_inputs(a_vals, r_vals):
    """1-d, 2-d and broadcast (alpha_sq, R) grids over the two axes."""
    k = min(a_vals.size, r_vals.size)
    mesh_a, mesh_r = np.meshgrid(a_vals, r_vals, indexing="ij")
    return [(a_vals[:k], r_vals[:k]), (mesh_a, mesh_r), (a_vals[:, None], r_vals[None, :]),
            (a_vals, r_vals[0]), (a_vals[0], r_vals[None, :])]


# one-row blocks, a ragged mid size, a large size and the shipped one
_BLOCK_SIZES = sorted({1, 1000, 2**14, squeezing.BLOCK_CELLS})


@pytest.mark.parametrize("block_cells", _BLOCK_SIZES)
@settings(max_examples=40)
@given(n=st.integers(0, 6), m=st.integers(0, 6),
       a_vals=st.lists(_alpha_sq, min_size=1, max_size=9),
       r_vals=st.lists(_reflectivity, min_size=1, max_size=7))
def test_variance_grid_equals_oracle_bit_for_bit(block_cells, n, m, a_vals, r_vals):
    with mock.patch.object(squeezing, "BLOCK_CELLS", block_cells):
        for alpha_sq, R in _grid_inputs(np.array(a_vals), np.array(r_vals)):
            got = squeezing.variance_x_map(n, m, alpha_sq, R)
            assert np.array_equal(got, _variance_oracle(n, m, alpha_sq, R), equal_nan=True)


@pytest.mark.parametrize("block_cells", _BLOCK_SIZES)
@pytest.mark.parametrize("n, m", [(1, 0), (2, 3), (4, 4), (0, 2)])
def test_variance_map_blocks_equal_whole_grid(monkeypatch, n, m, block_cells):
    # row blocks, ragged last block included, give the single-block values bit for bit,
    # and both the oracle's; alpha = 0 with m > n is the documented NaN row (n = 0 has no
    # moment terms, so the oracle gives 1/2 there)
    a_vals = np.arange(0.0, 30.0, 0.25)
    r_vals = np.arange(0.01, 0.99, 0.0025)
    monkeypatch.setattr(squeezing, "BLOCK_CELLS", 10**9)
    whole = squeezing.variance_x_map(n, m, a_vals[:, None], r_vals[None, :])
    assert np.array_equal(whole, _variance_oracle(n, m, a_vals[:, None], r_vals[None, :]),
                          equal_nan=True)
    monkeypatch.setattr(squeezing, "BLOCK_CELLS", block_cells)
    assert len(squeezing.row_blocks(whole.shape)) > 1
    blocked = squeezing.variance_x_map(n, m, a_vals[:, None], r_vals[None, :])
    assert np.array_equal(blocked, whole, equal_nan=True)
    assert np.isnan(whole[0]).all() == (m > n > 0)
    # a broadcast leading axis and a 1-d grid take the same path
    assert np.array_equal(squeezing.variance_x_map(n, m, 2.5, r_vals[None, :]), whole[10:11])
    assert np.array_equal(squeezing.variance_x_map(n, m, a_vals, 0.01), whole[:, 0],
                          equal_nan=True)


@pytest.mark.parametrize("n", [7, 9])
def test_variance_map_sums_many_levels_as_np_sum(n):
    # from 8 levels np.sum adds pairwise along a lone column and row after row across a
    # grid; the kernels follow it on each grid (a one-cell grid included) and at a point
    a_vals, r_vals = np.arange(0.5, 30.0, 1.5), np.arange(0.05, 0.99, 0.05)
    for alpha_sq, R in [(a_vals[:, None], r_vals[None, :]), (a_vals[3:4, None], r_vals[None, 5:6])]:
        got = squeezing.variance_x_map(n, 2, alpha_sq, R)
        assert np.array_equal(got, _variance_oracle(n, 2, alpha_sq, R))
    for a, r in zip(a_vals, r_vals):
        assert squeezing._variance_point(n, 2, a, r) == _variance_oracle(n, 2, a, r)


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


def _cm_axes():
    """The full (|alpha|^2, R) grid axes of optimize_cm_squeezing."""
    return tuple(np.arange(lo, hi + step / 2, step)
                 for lo, hi, step in (squeezing.CM_ALPHA_SQ_AXIS, squeezing.CM_R_AXIS))


def _fake_scans(monkeypatch, grids, minimize=None):
    """Serve `_variance_blocks` from fake value grids chosen by the requested shape.

    The optimizer's simplex returns its start unless minimize is given.
    """
    def blocks(n, m, alpha_sq, R):
        V = grids[np.broadcast_shapes(np.shape(alpha_sq), np.shape(R))]
        for lo, hi in squeezing.row_blocks(V.shape):
            yield lo, hi, V[lo:hi].copy()

    monkeypatch.setattr(squeezing, "_variance_blocks", blocks)
    monkeypatch.setattr(squeezing, "minimize", minimize or (lambda fun, x0, **kw: SimpleNamespace(
        x=np.array(x0), fun=math.inf, nfev=0, nit=1, success=True)))


def _tied_grid(shape, cells, seed=7):
    """Random values with ties at cells (within and across blocks), NaN cells and NaN rows."""
    V = np.random.default_rng(seed).uniform(1.0, 2.0, shape)
    V[0, :7] = np.nan
    V[41:82] = np.nan
    for cell in cells:
        V[cell] = 0.5
    return V


def test_coarse_scan_argmin_is_nanargmin_first_occurrence(monkeypatch):
    # n = 0 scans the full grid: the running argmin over the blocks picks the cell
    # np.nanargmin picks on the whole grid
    a_vals, r_vals = _cm_axes()
    V = _tied_grid((a_vals.size, r_vals.size), [(100, 7), (30, 200), (30, 5), (599, 392)])
    assert len(squeezing.row_blocks(V.shape)) > 3
    _fake_scans(monkeypatch, {V.shape: V})
    rec = squeezing.optimize_cm_squeezing(0, 1)
    ia, ir = np.unravel_index(np.nanargmin(V), V.shape)
    assert (ia, ir) == (30, 5)
    assert (rec.alpha_sq, rec.R, rec.min_var) == (a_vals[ia], r_vals[ir], 0.5)
    assert rec.scan_cells == V.size == 235_800


@pytest.mark.parametrize("least, end, start, cells", [
    ((30, 5), None, "subgrid", 9_480),  # an inner cell starts the simplex
    ((0, 40), None, "fine", 245_280),  # a cell on the subgrid's outer ring: the full scan
    ((30, 5), (29.9, 0.5), "fine", 245_280),  # the simplex ends next to the box edge
])
def test_subgrid_scan_argmin_and_fallbacks(monkeypatch, least, end, start, cells):
    # the subgrid scan of an isolated optimum (n >= 2, m >= 1) takes np.nanargmin's first
    # least cell of its own grid, and hands over to the full scan at the box edge
    a_vals, r_vals = _cm_axes()
    sub_a, sub_r = a_vals[::squeezing.SCAN_STRIDE], r_vals[::squeezing.SCAN_STRIDE]
    assert (sub_a.size, sub_r.size) == (120, 79)
    sub = _tied_grid((sub_a.size, sub_r.size), [(100, 7), (30, 60), least, (119, 78)])
    fine = _tied_grid((a_vals.size, r_vals.size), [(30, 200), (30, 5), (599, 392)], seed=8)
    monkeypatch.setattr(squeezing, "BLOCK_CELLS", 1000)
    assert len(squeezing.row_blocks(sub.shape)) > 3
    runs = []

    def simplex(fun, x0, **kw):  # the first run ends at `end` if given, a later one at its start
        moved = end is not None and not runs
        runs.append(x0)
        return SimpleNamespace(x=np.array(end if moved else x0), fun=0.25 if moved else math.inf,
                               nfev=0, nit=1, success=True)

    _fake_scans(monkeypatch, {sub.shape: sub, fine.shape: fine}, simplex)
    rec = squeezing.optimize_cm_squeezing(2, 1)
    V, (a, r) = (sub, (sub_a, sub_r)) if start == "subgrid" else (fine, (a_vals, r_vals))
    ia, ir = np.unravel_index(np.nanargmin(V), V.shape)
    assert (ia, ir) == (30, 5)
    assert (rec.alpha_sq, rec.R, rec.min_var) == (a[ia], r[ir], 0.5)
    assert rec.scan_cells == cells
    assert len(runs) == (1 if end is None else 2)


def test_table1_equals_oracle_run(monkeypatch):
    # records, nit and nfev included, equal those of a run whose scan and objective are
    # the whole-grid numpy oracle
    fast = squeezing.table1(n_max=2, m_max=2)

    def blocks(n, m, alpha_sq, R):
        V = _variance_oracle(n, m, alpha_sq, R)
        yield 0, V.shape[0], V

    monkeypatch.setattr(squeezing, "_variance_blocks", blocks)
    monkeypatch.setattr(squeezing, "_variance_point",
                        lambda n, m, a, r: float(_variance_oracle(n, m, a, r)))
    assert squeezing.table1(n_max=2, m_max=2) == fast


_ISOLATED = [(5, 1), (6, 1), (6, 3), (8, 2), (10, 1), (12, 2)]
_EDGE = [(2, 6), (4, 8), (5, 7)]


def _fine_path(n, m):
    """The full-grid start scan and its simplex: the reference for the narrower scans."""
    a_vals, r_vals = _cm_axes()
    (ia, ir), v = squeezing._first_least(n, m, a_vals[:, None], r_vals[None, :])
    return squeezing._refine(n, m, a_vals[ia], r_vals[ir], v, a_vals.size * r_vals.size)


@pytest.mark.parametrize("n, m", [(n, m) for n in range(1, 5) for m in range(5)]
                         + _ISOLATED + _EDGE)
def test_start_scans_reach_the_fine_path_optimum(n, m):
    # a subgrid start reaches the full-grid start's minimum (perfbench's location rule);
    # flat rows and fallbacks give the full-grid record bit for bit
    rec, fine = squeezing.optimize_cm_squeezing(n, m), _fine_path(n, m)
    if rec.scan_cells == 120 * 79:
        assert rec.min_var <= fine.min_var + 1e-10
        for got, want in ((rec.alpha_sq, fine.alpha_sq), (rec.R, fine.R)):
            assert abs(got - want) <= 1e-3 * max(1.0, abs(want))
    else:
        assert dataclasses.replace(rec, scan_cells=fine.scan_cells) == fine
    subgrid = n >= 2 and m >= 1 and (n, m) not in _EDGE + [(3, 4)]
    assert (rec.scan_cells == 120 * 79) == subgrid


@pytest.mark.parametrize("n, m", [(n, 0) for n in range(1, 13)] + [(1, m) for m in range(1, 21)])
def test_locus_band_holds_the_full_scan_start(monkeypatch, n, m):
    # on a flat set the band's first least cell is the full grid's, value included
    a_vals, r_vals = _cm_axes()
    starts = []
    monkeypatch.setattr(squeezing, "_refine", lambda *args: starts.append(args[2:]))
    squeezing.optimize_cm_squeezing(n, m)
    (ia, ir), v = squeezing._first_least(n, m, a_vals[:, None], r_vals[None, :])
    ((alpha_sq, R, start_var, cells),) = starts
    assert (alpha_sq, R, start_var) == (a_vals[ia], r_vals[ir], v)
    assert cells == squeezing._locus_band(n, m, a_vals, r_vals).size < 3000


def test_table1_rows_report_their_start_scan():
    # flat rows scan their band; (3, 4), whose subgrid least cell lies on the subgrid's
    # last |alpha|^2 row (29.8), scans the subgrid and then the full grid; the rest the subgrid
    a_vals, r_vals = _cm_axes()
    paths = {}
    for rec in squeezing.table1():
        if rec.n == 1 or rec.m == 0:
            assert rec.scan_cells == squeezing._locus_band(rec.n, rec.m, a_vals, r_vals).size
            paths.setdefault("band", []).append((rec.n, rec.m))
        else:
            paths.setdefault(rec.scan_cells, []).append((rec.n, rec.m))
    assert len(paths["band"]) == 8
    assert paths[120 * 79 + 600 * 393] == [(3, 4)]
    assert len(paths[120 * 79]) == 11


def test_large_m_grid_holds_no_power_table():
    # H_{2-q,1000}(x, x) is x^(998+q) times a Laguerre value of degree 2 - q; a table of all
    # 1001 powers of x held 16 MiB on this grid
    a_vals, r_vals = np.linspace(1.0, 2.0, 20), np.linspace(0.1, 0.4, 100)
    args = (2, 1000, a_vals[:, None], r_vals[None, :])
    squeezing.variance_x_map(*args)
    tracemalloc.start()
    try:
        V = squeezing.variance_x_map(*args)
        C = dq.coefficients_grid(2, 1000, np.sqrt(a_vals[:, None]), r_vals[None, :])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(C).all()
    assert np.array_equal(V, _variance_oracle(*args))
    assert peak <= 2**20


def test_overflowing_norm_is_nan():
    # every C_q is finite, but sum_q C_q^2 overflows: NaN, not the vacuum's 1/2 from c / inf
    c = dq.coefficients_grid(150, 0, math.sqrt(2.0), 0.2)
    with np.errstate(over="ignore"):  # numpy warns as C_q^2 overflows
        assert np.isfinite(c).all() and not np.isfinite(np.sum(c * c))
        assert math.isnan(squeezing._variance_point(150, 0, 2.0, 0.2))
        assert np.isnan(squeezing.variance_x_map(150, 0, np.array([1.0, 2.0]), 0.2)).all()
        assert np.isnan(_variance_oracle(150, 0, 2.0, 0.2))


def test_optimizer_scan_memory_peak():
    # one block's arrays, not the 600 x 393 grid and np.nanargmin's copy of it (4.5 MiB)
    squeezing.optimize_cm_squeezing(1, 0)
    tracemalloc.start()
    try:
        squeezing.optimize_cm_squeezing(6, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * 2**20


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


def _walled_terraces(x):
    """A quadratic rounded down to 1/64, so values tie, and NaN past the wall x_0 = 1.5."""
    if x[0] > 1.5:
        return math.nan
    return math.floor(64 * float(np.sum((x - np.linspace(2.0, 0.5, x.size)) ** 2))) / 64


@pytest.mark.parametrize("x0", [[0.2, 1.7], [1.5, 0.5, 3.0]])
def test_minimize_matches_scipy_through_nan_and_ties(x0):
    # the minimum lies past the wall, so reflections land on NaN, and the rounding ties
    # vertices; from [1.5, 0.5, 3.0] a stable sort of four tied values parts from scipy's
    # np.argsort
    seen = []

    def fun(x):
        seen.append(_walled_terraces(x))
        return seen[-1]

    res = _assert_matches_scipy_nelder_mead(
        fun, np.array(x0), {"xatol": 1e-8, "fatol": 1e-12, "maxiter": 300}
    )
    finite = [v for v in seen[: res.nfev] if not math.isnan(v)]
    assert len(finite) < res.nfev and len(set(finite)) < len(finite) / 2


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


def _oracle_principal_variance(n, m, alpha, R):
    """Lowest eigenvalue of the X/P covariance matrix of the two-mode oracle state."""
    t = fock.Truncation.auto(alpha, n, m)
    v = fock.brute_force_cm(n, m, alpha, R, t)[0].amps
    a = fock.annihilation_matrix(t)
    x = (a + a.conj().T) / math.sqrt(2)
    p = (a - a.conj().T) / (1j * math.sqrt(2))

    def mean(op):
        return np.vdot(v, op @ v).real

    cov = [[mean(f @ g + g @ f) / 2 - mean(f) * mean(g) for g in (x, p)] for f in (x, p)]
    return np.linalg.eigvalsh(np.array(cov))[0]


def test_min_var_is_principal_variance():
    # rotating alpha rotates the quadratures: Var X moves, the principal variance does not
    n, m, a2, R = 4, 1, 6.665, 0.7278
    seen = []
    for phase in (0.0, 0.6, 1.3, 2.9):
        alpha = math.sqrt(a2) * complex(math.cos(phase), math.sin(phase))
        rep = squeezing.quadratures(dq.build_dq(dq.CMConfig(n, m, alpha, R))[0])
        assert rep.min_var <= min(rep.var_x, rep.var_p)
        assert rep.min_var == pytest.approx(_oracle_principal_variance(n, m, alpha, R), abs=1e-9)
        seen.append(rep.min_var)
    assert max(seen) - min(seen) < 1e-12
    assert seen[0] == pytest.approx(0.2121, abs=5e-5)
