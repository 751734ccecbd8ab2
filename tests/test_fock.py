import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from dqsim import fock
from dqsim.errors import TruncationTooSmall, ZeroProbability


def test_truncation_validation():
    with pytest.raises(ValueError):
        fock.Truncation(0)
    assert fock.Truncation.auto(0.0).dim == 25
    assert fock.Truncation.auto(3.0, n=2, m=4).dim >= 9 + 21 + 15


def test_coherent_vacuum_limit():
    v = fock.coherent(0.0, fock.Truncation(25))
    assert v.amps[0] == pytest.approx(1.0)
    assert np.allclose(v.amps[1:], 0.0)


def test_coherent_amplitude_ratio():
    v = fock.coherent(2.0, fock.Truncation(40))
    # Poissonian closed form: amps[4]/amps[0] = 2^4 / sqrt(4!)
    assert v.amps[4] / v.amps[0] == pytest.approx(16 / math.sqrt(24), rel=1e-12)
    assert v.norm2() == pytest.approx(1.0, abs=1e-12)


def test_coherent_large_amplitude_is_normalized():
    # the running product alpha^k / sqrt(k!) overflows from |alpha|^2 ~ 1420; the log-space
    # peak and the ratios below 1 do not
    v = fock.coherent(math.sqrt(1500), fock.Truncation(1900))
    p = np.abs(v.amps) ** 2
    assert np.all(np.isfinite(v.amps))
    assert v.norm2() == pytest.approx(1.0, abs=1e-12)
    assert np.dot(np.arange(p.size), p) == pytest.approx(1500.0, rel=1e-9)


def test_coherent_matches_product_recurrence():
    # the product recurrence alpha^k / sqrt(k!), accurate to 2e-16 where it does not overflow
    rng = np.random.default_rng(17)
    for _ in range(200):
        alpha = math.sqrt(rng.uniform(0.0, 30.0)) * np.exp(1j * rng.choice([0.0, math.pi,
                                                                             rng.uniform(-3, 3)]))
        t = fock.Truncation.auto(alpha)
        ref = np.empty(t.dim, dtype=complex)
        ref[0] = 1.0
        for k in range(1, t.dim):
            ref[k] = ref[k - 1] * alpha / math.sqrt(k)
        ref *= math.exp(-abs(alpha) ** 2 / 2.0)
        ref /= math.sqrt(float(np.vdot(ref, ref).real))
        assert np.max(np.abs(fock.coherent(alpha, t).amps - ref)) <= 1e-15


def test_coherent_truncation_guard():
    with pytest.raises(TruncationTooSmall):
        fock.coherent(4.0, fock.Truncation(18))


def _displacement_generator(beta, dim):
    a = fock.annihilation_matrix(fock.Truncation(dim))
    return beta * a.conj().T - np.conj(beta) * a


def _squeeze_generator(r, phi, dim):
    a = fock.annihilation_matrix(fock.Truncation(dim))
    zeta = r * np.exp(1j * phi)
    return 0.5 * (zeta * (a.conj().T @ a.conj().T) - np.conj(zeta) * (a @ a))


def _bs_sector_generator(N, R):
    """theta (a^dag b - a b^dag) on the sector |k>|N-k>, k = 0..N, as fock._bs_blocks builds it."""
    theta = math.acos(math.sqrt(R))
    gen = np.zeros((N + 1, N + 1))
    for k in range(N):
        amp = theta * math.sqrt((k + 1) * (N - k))
        gen[k + 1, k] = amp
        gen[k, k + 1] = -amp
    return gen


@pytest.mark.parametrize(
    "gen",
    [
        _displacement_generator(1.2 + 0.7j, 30),
        _displacement_generator(0.3j, 60),
        _displacement_generator(3.0 - 2.0j, 120),
        _displacement_generator(-5.5 + 4.1j, 285),
        _squeeze_generator(0.4, 0.3, 60),
        _squeeze_generator(0.9, -1.2, 120),
        _bs_sector_generator(1, 0.5),
        _bs_sector_generator(20, 0.37),
        _bs_sector_generator(60, 0.8),
        _bs_sector_generator(118, 0.37),
    ],
    ids=["disp30", "disp60", "disp120", "disp285", "sq60", "sq120",
         "bs1", "bs20", "bs60", "bs118"],
)
def test_expm_matches_scipy_and_is_unitary(gen):
    u = fock.expm(gen)
    assert u.dtype == (float if np.isrealobj(gen) else complex)
    np.testing.assert_allclose(u, scipy.linalg.expm(gen), rtol=0, atol=1e-13)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(gen.shape[0]), rtol=0, atol=1e-13)


def test_expm_matches_mpmath_expm():
    gen = _bs_sector_generator(20, 0.37)
    with mpmath.workdps(40):
        ref = np.array(mpmath.expm(mpmath.matrix(gen.tolist())).tolist(), dtype=float)
    np.testing.assert_allclose(fock.expm(gen), ref, rtol=0, atol=1e-14)


def _bs_sector_exact(N, R):
    """The N-photon sector of U = exp(theta (a^dag b - a b^dag)) to 60 digits.

    U a^dag U^dag = c a^dag - s b^dag and U b^dag U^dag = s a^dag + c b^dag
    (c = cos theta, s = sin theta), so column k' is the expansion of
    (c x - s y)^k' (s x + c y)^(N-k') in x^k y^(N-k), scaled by
    sqrt(k! (N-k)! / (k'! (N-k')!)).  theta is the float that
    `_bs_sector_generator` uses.
    """
    out = np.empty((N + 1, N + 1))
    with mpmath.workdps(60):
        theta = mpmath.mpf(math.acos(math.sqrt(R)))
        c, s = mpmath.cos(theta), mpmath.sin(theta)
        fact = [mpmath.factorial(i) for i in range(N + 1)]
        for kp in range(N + 1):
            p1 = [mpmath.binomial(kp, j) * c**j * (-s) ** (kp - j) for j in range(kp + 1)]
            p2 = [mpmath.binomial(N - kp, i) * s**i * c ** (N - kp - i) for i in range(N - kp + 1)]
            for k in range(N + 1):
                js = range(max(0, k - (N - kp)), min(k, kp) + 1)
                coef = mpmath.fsum(p1[j] * p2[k - j] for j in js)
                out[k, kp] = float(coef * mpmath.sqrt(fact[k] * fact[N - k] / (fact[kp] * fact[N - kp])))
    return out


def test_expm_matches_exact_beam_splitter_sector():
    # scipy's Pade expm is off by 2e-14 on this block
    N, R = 118, 0.37
    np.testing.assert_allclose(
        fock.expm(_bs_sector_generator(N, R)), _bs_sector_exact(N, R), rtol=0, atol=1e-14
    )


def test_expm_rejects_non_anti_hermitian_generator():
    a = fock.annihilation_matrix(fock.Truncation(6))
    with pytest.raises(ValueError, match="anti-Hermitian"):
        fock.expm(a + a.conj().T)
    with pytest.raises(ValueError, match="anti-Hermitian"):
        fock.expm(_bs_sector_generator(5, 0.3) + 1e-9 * np.eye(6))


def test_displacement_is_unitary_and_composes():
    t = fock.Truncation(45)
    d1 = fock.displacement_matrix(0.7 + 0.2j, t)
    np.testing.assert_allclose(d1 @ d1.conj().T, np.eye(t.dim), atol=1e-10)
    # composition up to a global phase: D(b1) D(b2) |0> ~ D(b1+b2) |0>
    d2 = fock.displacement_matrix(-0.4 + 0.9j, t)
    d12 = fock.displacement_matrix(0.3 + 1.1j, t)
    lhs = fock.FockVector(d1 @ (d2 @ fock.fock_state(0, t).amps))
    rhs = fock.FockVector(d12 @ fock.fock_state(0, t).amps)
    assert abs(np.vdot(lhs.amps, rhs.amps)) == pytest.approx(1.0, abs=1e-9)


def test_displacement_matrix_returns_private_copy():
    t = fock.Truncation(30)
    d = fock.displacement_matrix(0.7 + 0.2j, t)
    ref = d.copy()
    d[:] = 0.0
    np.testing.assert_array_equal(fock.displacement_matrix(0.7 + 0.2j, t), ref)


def test_displacement_truncation_guard():
    with pytest.raises(TruncationTooSmall):
        fock.displacement_matrix(4.0, fock.Truncation(20))


def test_squeeze_matrix_variances():
    t = fock.Truncation(60)
    r = 0.5
    s = fock.squeeze_matrix(r, 0.0, t)
    np.testing.assert_allclose(s @ s.conj().T, np.eye(t.dim), atol=1e-9)
    v = s @ fock.fock_state(0, t).amps
    a = fock.annihilation_matrix(t)
    x = (a + a.conj().T) / math.sqrt(2)
    var_x = np.vdot(v, x @ (x @ v)).real
    assert var_x == pytest.approx(0.5 * math.exp(2 * r), rel=1e-9)


def test_thermal_density():
    t = fock.Truncation(60)
    vac = fock.thermal_density(0.0, t)
    assert vac.mat[0, 0] == pytest.approx(1.0)
    assert vac.trace() == pytest.approx(1.0)
    th = fock.thermal_density(0.5, t)
    assert np.trace(th.mat @ th.mat).real == pytest.approx(1.0 / 2.0, abs=1e-6)  # 1/(2 nbar + 1)
    with pytest.raises(TruncationTooSmall):
        fock.thermal_density(5.0, fock.Truncation(30))


def test_bs_unitary_dense_unitarity():
    t = fock.Truncation(12)
    U = fock.bs_unitary(0.37, t)
    np.testing.assert_allclose(U @ U.T, np.eye(t.dim**2), atol=1e-8)


def test_bs_vacuum_invariance():
    t = fock.Truncation(10)
    U = fock.bs_unitary(0.5, t)
    e00 = np.zeros(t.dim**2)
    e00[0] = 1.0
    np.testing.assert_allclose(U @ e00, e00, atol=1e-12)


def test_bs_fully_reflective_limit():
    t = fock.Truncation(10)
    U = fock.bs_unitary(1 - 1e-12, t)
    e10 = np.zeros(t.dim**2)
    e10[1 * t.dim + 0] = 1.0  # |1>_a |0>_b
    out = U @ e10
    assert abs(out[1 * t.dim + 0]) == pytest.approx(1.0, abs=1e-6)


def test_bs_balanced_single_photon():
    t = fock.Truncation(10)
    U = fock.bs_unitary(0.5, t)
    idx = 0 * t.dim + 1  # |0>_a |1>_b
    amp = U[idx, idx]
    assert amp**2 == pytest.approx(0.5, abs=1e-9)


def test_brute_force_cm_coherent_passthrough():
    # n = m = 0: the signal mode keeps a coherent state of reduced amplitude
    alpha, R = 1.4, 0.5
    t = fock.Truncation.auto(alpha)
    state, prob = fock.brute_force_cm(0, 0, alpha, R, t)
    expected = fock.coherent(alpha * math.sqrt(R), t)
    assert abs(np.vdot(state.amps, expected.amps)) == pytest.approx(1.0, abs=1e-9)
    assert prob == pytest.approx(math.exp(-(alpha**2) * (1 - R)), abs=1e-9)


def test_brute_force_cm_equal_superposition_point():
    # single photon in, vacuum detected, alpha = 1/sqrt(R): (|0> + |1>)/sqrt(2)
    R = 0.64
    alpha = 1 / math.sqrt(R)
    t = fock.Truncation.auto(alpha, 1, 0)
    state, _ = fock.brute_force_cm(1, 0, alpha, R, t)
    target = np.zeros(t.dim, dtype=complex)
    target[:2] = 1 / math.sqrt(2)
    disp = fock.displacement_matrix(alpha * math.sqrt(R), t)
    expected = fock.FockVector(disp @ target)
    assert abs(np.vdot(state.amps, expected.amps)) == pytest.approx(1.0, abs=1e-9)


def test_brute_force_cm_reflected_photon():
    state, prob = fock.brute_force_cm(1, 1, 0.0, 0.42, fock.Truncation(25))
    assert prob == pytest.approx(0.42, abs=1e-12)
    assert abs(state.amps[0]) == pytest.approx(1.0, abs=1e-12)


def test_brute_force_cm_herald_completeness():
    t = fock.Truncation.auto(1.2, 3, 0)
    total = 0.0
    for m in range(t.dim):
        try:
            _, p = fock.brute_force_cm(3, m, 1.2, 0.61, t)
        except ZeroProbability:
            p = 0.0
        total += p
    assert total == pytest.approx(1.0, abs=1e-8)


def test_zero_probability_raised():
    with pytest.raises(ZeroProbability):
        fock.brute_force_cm(0, 6, 0.0, 0.5, fock.Truncation(25))

