import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from dqsim import dq, fock, nongauss, squeezing
from dqsim.errors import NonPhysicalCovariance


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


def _mp_hsd(c):
    """delta of sum_q c_q |q> from the Fock-element recurrence in 50-digit matrix arithmetic."""
    with mpmath.workdps(50):
        c = [mpmath.mpc(complex(v)) for v in c]
        norm = mpmath.sqrt(mpmath.fsum(abs(v) ** 2 for v in c))
        c = [v / norm for v in c]
        n, f = len(c) - 1, mpmath.factorial

        def moment(u, v):  # <a^dag^u a^v>
            return mpmath.fsum(mpmath.conj(c[k + u]) * c[k + v] * mpmath.sqrt(f(k + u) * f(k + v))
                               / f(k) for k in range(n + 1 - max(u, v)))

        a1 = moment(0, 1)
        N, M = moment(1, 1).real - abs(a1) ** 2, moment(0, 2) - a1**2
        Q = mpmath.matrix([[N + 1, M], [mpmath.conj(M), N + 1]])
        A = mpmath.matrix([[0, 1], [1, 0]]) * (mpmath.eye(2) - Q**-1)
        beta = mpmath.matrix([a1, mpmath.conj(a1)])
        gamma = mpmath.matrix([mpmath.conj(a1), a1]) - A * beta
        G = mpmath.matrix(n + 1, n + 1)
        G[0, 0] = mpmath.exp(-(beta.H * Q**-1 * beta)[0] / 2) / mpmath.sqrt(mpmath.det(Q))
        for k0 in range(n + 1):
            for k1 in range(n + 1):
                k, i = [k0, k1], 0 if k0 else 1  # G_k from G_(k - e_i)
                if k == [0, 0]:
                    continue
                k[i] -= 1
                total = gamma[i] * G[k[0], k[1]]
                for j in (0, 1):
                    if k[j]:
                        low = list(k)
                        low[j] -= 1
                        total += A[i, j] * mpmath.sqrt(k[j]) * G[low[0], low[1]]
                G[k0, k1] = total / mpmath.sqrt(k[i] + 1)
        tr = mpmath.fsum(mpmath.conj(c[p]) * G[q, p] * c[q] for p in range(n + 1) for q in range(n + 1))
        det_sigma = (N + mpmath.mpf(1) / 2) ** 2 - abs(M) ** 2
        return float((1 - 2 * tr.real + 1 / (2 * mpmath.sqrt(det_sigma))) / 2)


@pytest.mark.parametrize("n,m", [(2, 1), (10, 0), (40, 0)])
def test_hsd_matches_mpmath_recurrence(n, m):
    # cells of hsd-scan's default grid; the float coefficients are the exact inputs
    a_vals, r_vals = np.array([0.05, 1.0, 6.0, 16.0]), np.array([0.05, 0.5, 0.95])
    coeffs = dq.coefficients_grid(n, m, np.sqrt(a_vals)[:, None], r_vals[None, :])
    deltas = nongauss.hsd_of_coeffs(coeffs)
    for i, j in np.ndindex(deltas.shape):
        assert deltas[i, j] == pytest.approx(_mp_hsd(coeffs[:, i, j]), abs=1e-13)


def test_hsd_max_tops_a_dense_scan_of_the_box():
    (a_lo, a_hi), (r_lo, r_hi) = nongauss.HSD_BOX
    a_vals, r_vals = np.linspace(a_lo, a_hi, 320), np.linspace(r_lo, r_hi, 181)
    for n in range(1, 6):
        ceiling = 0.5 * (1 + 1 / (2 * n + 1) - 2 * n**n / (n + 1) ** (n + 1))  # delta of |n>
        for m in range(6):
            value, alpha_sq, R, on_boundary = nongauss.hsd_max(n, m)
            assert value >= np.max(nongauss.hsd_scan(n, m, a_vals, r_vals)) - 1e-9, (n, m)
            assert value <= ceiling + 1e-12 and R == r_lo and on_boundary
            assert value == pytest.approx(nongauss.hsd_scan(n, m, [alpha_sq], [R])[0, 0], abs=1e-14)


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


def test_negativity_nonnegative_and_grid_checks():
    assert nongauss.wigner_negativity(dq.DQState.from_coeffs([0, 1.0])) >= 0.0


# |alpha|^2, R and the negativity of each Table 3 state (n, m = 1), and the n = 1 erratum point
NEGATIVITY_PINS = [
    (1, 3.05, 0.6000, 0.392181979122),
    (2, 5.45, 0.8175, 0.057764716695),
    (3, 6.00, 0.7650, 0.070252599052),
    (4, 6.65, 0.7275, 0.075943378920),
    (1, 3.05**2, 0.6000, 0.030057248046),
]


def _pinned_state(n, alpha_sq, R):
    return dq.build_dq(dq.CMConfig(n, 1, complex(math.sqrt(alpha_sq)), R))[0]


def test_negativity_single_photon_closed_form():
    # |1>: W = (2/pi) e^(-2r^2) (4r^2 - 1), so N = 4 / sqrt(e) - 2
    value = nongauss.wigner_negativity(dq.DQState.from_coeffs([0, 1.0]))
    assert abs(value - (4.0 / math.sqrt(math.e) - 2.0)) <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 4])
def test_negativity_fock_states_match_radial_integral(n):
    # W = (2/pi) e^(-2r^2) (-1)^n L_n(4r^2); |W| integrates piecewise between L_n's roots
    from numpy.polynomial.laguerre import laggauss

    with mpmath.workdps(30):
        radius = [mpmath.mpf(0)] + [mpmath.sqrt(x) / 2 for x in laggauss(n)[0]] + [mpmath.inf]
        total = mpmath.quad(
            lambda r: 4 * r * mpmath.exp(-2 * r * r) * abs(mpmath.laguerre(n, 0, 4 * r * r)), radius
        )
    value = nongauss.wigner_negativity(dq.DQState.from_coeffs(np.eye(n + 1)[n]))
    assert abs(value - float(total - 1)) <= 1e-13


@pytest.mark.parametrize("n, alpha_sq, R, pinned", NEGATIVITY_PINS)
def test_negativity_pinned_values(n, alpha_sq, R, pinned):
    assert abs(nongauss.wigner_negativity(_pinned_state(n, alpha_sq, R)) - pinned) <= 1e-12


@pytest.mark.parametrize("n, alpha_sq, R, pinned", NEGATIVITY_PINS)
def test_negativity_ignores_displacement(n, alpha_sq, R, pinned):
    coeffs = _pinned_state(n, alpha_sq, R).coeffs
    values = {
        nongauss.wigner_negativity(dq.DQState.from_coeffs(coeffs, displacement=g))
        for g in (0j, 0.9 + 0.2j)
    }
    assert len(values) == 1


def test_negativity_edge_cases_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert nongauss.wigner_negativity(dq.DQState.from_coeffs([1.0])) == 0.0
        # a vanishing top coefficient would divide the companion matrices by zero
        trailing = nongauss.wigner_negativity(dq.DQState.from_coeffs([0.6, 0.8, 0.0]))
        assert trailing == nongauss.wigner_negativity(dq.DQState.from_coeffs([0.6, 0.8]))


@pytest.mark.parametrize("top", [1e-4, 1e-6, 1e-12])
def test_negativity_continuous_in_a_small_top_coefficient(top):
    # a small top coefficient puts a root of E, and a negative disc of P, far out where |W|
    # is below rounding; the window must stop at W's support, not box that disc in
    bare = nongauss.wigner_negativity(dq.DQState.from_coeffs([0.6, 0.8]))
    value = nongauss.wigner_negativity(dq.DQState.from_coeffs([0.6, 0.8, top]))
    assert 0.0 < abs(value - bare) <= top


def test_negativity_refines_pieces_near_complex_singularities():
    # on this real n = 4 state one 20-node Gauss-Legendre sum over the piece between the
    # breakpoints near x = -0.138 and 0.143 is off by 4e-7; the reference integrates the exact
    # line integrals G(x) by adaptive quadrature, with no breakpoints given
    from numpy.polynomial import Chebyshev
    from numpy.polynomial.legendre import leggauss
    from scipy.integrate import quad

    state = dq.DQState.from_coeffs([-0.45405232, 0.5197562, 0.14174526, -0.70020589, -0.11536885])
    u, w = leggauss(60)

    def line(x):  # integral of -W over Im beta where W < 0, at Re beta = x
        p = np.linspace(-8.0, 8.0, 17)
        poly = Chebyshev.fit(p, nongauss.wigner_closed(state, x + 1j * p) * np.exp(2 * (x * x + p * p)), 8)
        r = poly.roots()
        ends = np.r_[-8.0, np.sort(r[np.abs(r.imag) < 1e-12].real), 8.0]
        q = 0.5 * (ends[1:] + ends[:-1])[:, None] + 0.5 * np.diff(ends)[:, None] * u
        return float(np.sum(0.5 * np.diff(ends) * (-np.minimum(nongauss.wigner_closed(state, x + 1j * q), 0) @ w)))

    reference, error = quad(line, -8.0, 8.0, epsabs=1e-15, limit=1000)
    assert error < 1e-8
    assert abs(nongauss.wigner_negativity(state) - 2.0 * reference) <= 1e-9


def test_negativity_refuses_a_polynomial_it_cannot_resolve():
    # from n ~ 8 the Chebyshev form of P loses its sign to rounding on the window
    coeffs = np.random.default_rng(5).uniform(-1.0, 1.0, 11)
    with pytest.raises(ValueError, match="degree 20"):
        nongauss.wigner_negativity(dq.DQState.from_coeffs(coeffs))


_BREAKPOINTS = nongauss._breakpoints


def _scan(coeffs, lines):
    """N and its breakpoints for the superposition coeffs, from a scan of the given lines."""
    found = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nongauss, "_SCAN_LINES", lines)
        mp.setattr(nongauss, "_breakpoints", lambda *a: found.append(_BREAKPOINTS(*a)) or found[-1])
        value = nongauss.wigner_negativity(dq.DQState.from_coeffs(coeffs))
    return value, found[0]


def _assert_scan_resolves(coeffs):
    """A 401-line breakpoint scan finds what a 1601-line one does."""
    (value, breaks), (fine_value, fine_breaks) = _scan(coeffs, 401), _scan(coeffs, 1601)
    assert breaks.size == fine_breaks.size
    assert abs(value - fine_value) <= 1e-14


@pytest.mark.parametrize("n, alpha_sq, R, pinned", NEGATIVITY_PINS)
def test_negativity_scan_resolves_table3_states(n, alpha_sq, R, pinned):
    _assert_scan_resolves(_pinned_state(n, alpha_sq, R).coeffs)


_REAL_SUPERPOSITIONS = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
        st.floats(0.1, 1.0),
        st.booleans(),
    )
).map(lambda t: [*t[0], t[1] if t[2] else -t[1]])


@settings(max_examples=60)
@given(_REAL_SUPERPOSITIONS)
def test_negativity_scan_resolves_real_superpositions(coeffs):
    _assert_scan_resolves(dq.DQState.from_coeffs(coeffs).coeffs)


def _simpson_negativity(state, points):
    grid = nongauss.default_grid(state, points)
    absW = np.vstack([  # in row blocks, to keep the 1601^2 grid's temporaries small
        np.abs(nongauss.wigner_closed(state, grid.xs[lo : lo + 128, None] + 1j * grid.ps))
        for lo in range(0, points, 128)
    ])
    return float(simpson(simpson(absW, x=grid.ps, axis=1), x=grid.xs)) - 1.0


@pytest.mark.parametrize("n, alpha_sq, R, pinned", NEGATIVITY_PINS[:4])
def test_simpson_negativity_converges_to_exact(n, alpha_sq, R, pinned):
    state = _pinned_state(n, alpha_sq, R)
    exact = nongauss.wigner_negativity(state)
    coarse, fine = (abs(_simpson_negativity(state, p) - exact) for p in (401, 1601))
    assert fine < coarse and fine <= 2e-5


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


@pytest.mark.parametrize("block_cells", sorted({1, 1000, 2**14, dq.BLOCK_CELLS}))
@pytest.mark.parametrize("n, m", [(1, 0), (2, 3), (4, 4), (0, 2), (9, 2)])
def test_hsd_scan_blocks_equal_whole_grid(monkeypatch, n, m, block_cells):
    # row blocks, ragged last block included, give the single-block values bit for bit; the
    # alpha = 0 row with m > n is the documented NaN, and n = 9 sums 10 levels
    a_vals, r_vals = np.arange(0.0, 16.0, 0.25), np.linspace(0.05, 0.95, 37)
    monkeypatch.setattr(dq, "BLOCK_CELLS", 10**9)
    whole = nongauss.hsd_scan(n, m, a_vals, r_vals)
    monkeypatch.setattr(dq, "BLOCK_CELLS", block_cells)
    assert (len(dq.row_blocks(whole.shape)) > 1) == (block_cells < whole.size)
    assert np.array_equal(nongauss.hsd_scan(n, m, a_vals, r_vals), whole, equal_nan=True)
    assert np.isnan(whole[0]).all() == (m > n)


def test_hsd_scan_evaluates_row_blocks(monkeypatch):
    # hsd_of_coeffs never holds more than BLOCK_CELLS cells; one allocation of the whole
    # 400 x 230 grid took 326 MB at n = 20
    a_vals, r_vals = np.linspace(0.05, 16.0, 200), np.linspace(0.05, 0.95, 100)
    whole = nongauss.hsd_scan(2, 1, a_vals, r_vals)
    cells, kernel = [], nongauss.hsd_of_coeffs

    def spy(c):
        cells.append(math.prod(c.shape[1:]))
        return kernel(c)

    monkeypatch.setattr(nongauss, "hsd_of_coeffs", spy)
    assert np.array_equal(nongauss.hsd_scan(2, 1, a_vals, r_vals), whole)
    assert len(cells) == len(dq.row_blocks(whole.shape)) == 5
    assert max(cells) <= dq.BLOCK_CELLS and sum(cells) == whole.size


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


def test_hsd_of_overflowing_norm_is_nan():
    # a norm that overflows leaves no state: NaN, as in variance_x_map, not the delta = 1
    # of the zero vector that c / inf gives; the finite column is untouched
    with np.errstate(over="ignore"):
        delta = nongauss.hsd_of_coeffs(np.array([[1e200, 1.0], [1e200, 2.0]]))
    assert math.isnan(delta[0])
    assert delta[1] == nongauss.hsd_of_coeffs(np.array([1.0, 2.0]))


def _traced_peak_mib(fn, *args):
    """fn(*args) and the peak of the memory it allocates, in MiB, after one untraced warm-up call."""
    import tracemalloc

    fn(*args)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        value = fn(*args)
        return value, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n, alpha_sq, R, limit", [
    *[(n, a2, R, 0.6) for n, a2, R, _ in NEGATIVITY_PINS[:4]],
    (6, 8.0, 0.7, 1.2),
])
def test_negativity_working_set_is_bounded(n, alpha_sq, R, limit):
    # |W| runs over the negative segments in blocks; one batch over all of them held 2.98 MiB
    # at n = 4 and 8.6 MiB at this n = 6 state
    _, peak = _traced_peak_mib(nongauss.wigner_negativity, _pinned_state(n, alpha_sq, R))
    assert peak <= limit


def test_wigner_closed_working_set_is_bounded():
    # the points run in blocks of _POLY_BLOCK // (n + 1); the whole 401^2 grid at once held 56 MiB
    state, _ = dq.build_dq(dq.CMConfig(20, 0, complex(math.sqrt(8.0)), 0.5))
    mesh = nongauss.default_grid(state, 401).mesh()
    W, peak = _traced_peak_mib(nongauss.wigner_closed, state, mesh)
    assert W.shape == (401, 401) and np.all(np.isfinite(W))
    assert peak <= 8.0


def test_block_sizes_leave_results_bit_identical(monkeypatch):
    rng = np.random.default_rng(23)
    coeffs = [rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1) for n in range(7)]
    beta = rng.normal(size=(37, 11)) + 1j * rng.normal(size=(37, 11))
    states = [_pinned_state(n, a2, R) for n, a2, R, _ in NEGATIVITY_PINS[:4]]

    def polys():
        return [nongauss._wigner_poly(c, b) for c in coeffs for b in (beta, beta[3, 4])]

    def negativities(states):
        return [nongauss.wigner_negativity(s) for s in states]

    ref_polys, ref_negs = polys(), negativities(states)
    for size in (1, 7, 10**9):
        # segment blocks on every Table 3 state; point blocks as small as one point take
        # seconds from n = 3, so they also run on the n <= 2 states only
        monkeypatch.setattr(nongauss, "_SEGMENT_BLOCK", size)
        assert negativities(states) == ref_negs
        monkeypatch.setattr(nongauss, "_POLY_BLOCK", size)
        assert negativities(states[:2]) == ref_negs[:2]
        for (p, s), (bp, bs) in zip(ref_polys, polys()):
            assert p.shape == bp.shape == s.shape and np.array_equal(p, bp) and np.array_equal(s, bs)
        monkeypatch.undo()


def test_segment_blocks_leave_random_negativities_bit_identical(monkeypatch):
    # each segment's Gauss-Legendre sum is reduced on its own row: a matrix-vector product
    # rounded 3 of these 12 states differently at segment blocks of 1 and 7
    rng = np.random.default_rng(7)
    states = []
    for _ in range(12):
        n = int(rng.integers(1, 5))
        states.append(dq.DQState.from_coeffs(rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)))
    ref = [nongauss.wigner_negativity(s) for s in states]
    for size in (1, 7, 10**9):
        monkeypatch.setattr(nongauss, "_SEGMENT_BLOCK", size)
        assert [nongauss.wigner_negativity(s) for s in states] == ref


@pytest.mark.parametrize("n", range(11))
def test_wigner_poly_matches_mpmath_taylor_expansion(n):
    # e_k = E^(k)(a) / k! at a = -2 conj(beta), from 50-digit mpmath.taylor of
    # E(z) = sum_u (-1)^u c_u z^u / sqrt(u!); P and S are the sums of k! |e_k|^2 with and
    # without the alternating sign
    rng = np.random.default_rng(100 + n)
    c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    beta = rng.uniform(-3, 3, 10) + 1j * rng.uniform(-3, 3, 10)
    P, S = nongauss._wigner_poly(c, beta)
    with mpmath.workdps(50):
        d = [(-1) ** u * mpmath.mpc(c[u]) / mpmath.sqrt(mpmath.factorial(u)) for u in range(n + 1)]
        for b, p, s in zip(beta, P, S):
            e = mpmath.taylor(lambda z: mpmath.polyval(d[::-1], z), -2 * mpmath.conj(b), n)
            terms = [mpmath.factorial(k) * abs(e_k) ** 2 for k, e_k in enumerate(e)]
            s_mp = mpmath.fsum(terms)
            p_mp = mpmath.fsum(t if k % 2 == 0 else -t for k, t in enumerate(terms))
            assert abs(s - s_mp) <= 1e-14 * s_mp and abs(p - p_mp) <= 1e-14 * s_mp


def _guard_on_random_displaced_states(seed, count, monkeypatch):
    """Raised calls among count random displaced states (n = 1-24, complex normal coefficients,
    Re g and Im g uniform in [-8, 8]), each at 200 random points of its default window; every call
    that returns is within wigner_pointwise of the oracle, and its guard's bound is at least its
    error: with the tolerance just below that error, the same call raises."""
    from dqsim.errors import TOLERANCES, PrecisionLoss

    rng = np.random.default_rng(seed)
    raised = 0
    for _ in range(count):
        n = int(rng.integers(1, 25))
        g = complex(*rng.uniform(-8.0, 8.0, 2))
        state = dq.DQState.from_coeffs(rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1), g)
        grid = nongauss.default_grid(state)
        beta = (rng.uniform(grid.xs[0], grid.xs[-1], 200)
                + 1j * rng.uniform(grid.ps[0], grid.ps[-1], 200))
        rho = fock.DensityMatrix(np.outer(state.coeffs, state.coeffs.conj()))
        oracle = nongauss.wigner_oracle(rho, beta - g)
        try:
            W = nongauss.wigner_closed(state, beta)
        except PrecisionLoss:
            raised += 1
            continue
        error = np.max(np.abs(W - oracle))
        assert error <= TOLERANCES["wigner_pointwise"]
        with monkeypatch.context() as patch:
            patch.setitem(TOLERANCES, "wigner_pointwise", error * (1.0 - 1e-12))
            with pytest.raises(PrecisionLoss):
                nongauss.wigner_closed(state, beta)
    return raised


def test_wigner_closed_on_random_displaced_states_raises_or_matches_oracle(monkeypatch):
    # the displaced-frame sum gave silently wrong values (up to 1e2) on 26 of these 100 states;
    # the guard's estimate is the same in either frame, so the raising states stay
    assert _guard_on_random_displaced_states(2, 100, monkeypatch) < 50


def test_wigner_rounding_bound_covers_the_error_on_random_displaced_states(monkeypatch):
    # eps (n + 1) S alone fell to 0.85 times the error on one of these 300 states
    assert _guard_on_random_displaced_states(1, 300, monkeypatch) < 150


@pytest.mark.parametrize("deg", range(21))
def test_chebyshev_inverse_closed_form(deg):
    from numpy.polynomial.chebyshev import chebpts1, chebvander

    z, inverse = nongauss._cheb_nodes(deg)
    assert np.array_equal(z, chebpts1(deg + 1))
    assert np.max(np.abs(inverse - np.linalg.inv(chebvander(z, deg)))) <= 1e-13


@pytest.mark.parametrize("deg", range(21))
def test_chebyshev_helpers_match_numpy_polynomial_bit_for_bit(deg):
    # the negativity's lines (1-d), critical points and segment midpoints (2-d), coefficient blocks
    from numpy.polynomial.chebyshev import chebder, chebvander

    rng = np.random.default_rng(deg)
    for x in (rng.uniform(-1.0, 1.0, 401), np.sort(rng.uniform(-2.0, 2.0, (9, 2 * deg + 1)))):
        assert nongauss._chebvander(x, deg).tobytes() == chebvander(x, deg).tobytes()
    coef = rng.normal(size=(deg + 1, deg + 1)) * 10.0 ** rng.integers(-8, 8, (deg + 1, deg + 1))
    ours, theirs = nongauss._chebder(coef), chebder(coef, axis=1)
    assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()
    assert ours.strides == theirs.strides  # the same layout for the products that follow


def test_gauss_legendre_rule_matches_leggauss_and_is_exact():
    from numpy.polynomial.legendre import leggauss

    u, w = nongauss._gauss_legendre(20)
    u_np, w_np = leggauss(20)
    assert np.max(np.abs(u - u_np)) <= 2e-15 and np.max(np.abs(w - w_np)) <= 2e-15
    for k in range(40):
        assert abs(np.sum(w * u**k) - (0.0 if k % 2 else 2.0 / (k + 1))) <= 1e-14


def test_wigner_closed_n20_matches_oracle_at_random_points():
    # the rounding guard lets n = 20 through on the default window, where the closed form still
    # holds wigner_pointwise against the displaced-parity oracle
    state, _ = dq.build_dq(dq.CMConfig(20, 0, complex(math.sqrt(8.0)), 0.5))
    grid = nongauss.default_grid(state, 41)
    rng = np.random.default_rng(200)
    beta = rng.uniform(grid.xs[0], grid.xs[-1], 200) + 1j * rng.uniform(grid.ps[0], grid.ps[-1], 200)
    rho = fock.DensityMatrix(np.outer(state.coeffs, state.coeffs.conj()))
    oracle = nongauss.wigner_oracle(rho, beta - state.displacement)
    assert np.max(np.abs(nongauss.wigner_closed(state, beta) - oracle)) <= 1e-7


def test_wigner_closed_rounding_guard_raises_past_tolerance():
    # at n = 40 the alternating Hermite sum loses up to 6e-2 on this window
    from dqsim.errors import PrecisionLoss

    state, _ = dq.build_dq(dq.CMConfig(40, 0, complex(math.sqrt(8.0)), 0.5))
    with pytest.raises(PrecisionLoss, match="wigner_pointwise"):
        nongauss.wigner_closed(state, nongauss.default_grid(state, 41).mesh())


def test_negativity_is_invariant_under_a_global_phase(monkeypatch):
    # E's roots come from the real Taylor coefficients of a real state and from the complex
    # ones of e^(i phi) c: both root paths give one negativity
    rng, roots, real_inputs = np.random.default_rng(35), np.roots, []
    monkeypatch.setattr(np, "roots", lambda p: real_inputs.append(np.isrealobj(p)) or roots(p))
    for _ in range(12):
        c = rng.normal(size=int(rng.integers(1, 7)) + 1)
        turned = np.exp(1j * rng.uniform(0.1, 2 * np.pi - 0.1)) * c
        value, turned_value = (nongauss.wigner_negativity(dq.DQState.from_coeffs(v))
                               for v in (c, turned))
        assert abs(turned_value - value) <= 1e-12
    assert real_inputs == [True, False] * 12
