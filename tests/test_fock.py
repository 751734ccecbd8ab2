import math

import numpy as np
import pytest

from dqsim import fock
from dqsim.errors import DimensionMismatch, TruncationTooSmall, ZeroProbability


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


def test_coherent_truncation_guard():
    with pytest.raises(TruncationTooSmall):
        fock.coherent(4.0, fock.Truncation(18))


def test_displacement_is_unitary_and_composes():
    t = fock.Truncation(45)
    d1 = fock.displacement_matrix(0.7 + 0.2j, t)
    np.testing.assert_allclose(d1 @ d1.conj().T, np.eye(t.dim), atol=1e-10)
    # composition up to a global phase: D(b1) D(b2) |0> ~ D(b1+b2) |0>
    d2 = fock.displacement_matrix(-0.4 + 0.9j, t)
    d12 = fock.displacement_matrix(0.3 + 1.1j, t)
    lhs = fock.FockVector(d1 @ (d2 @ fock.fock_state(0, t).amps))
    rhs = fock.FockVector(d12 @ fock.fock_state(0, t).amps)
    assert abs(fock.overlap(lhs, rhs)) == pytest.approx(1.0, abs=1e-9)


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
    assert fock.purity(th) == pytest.approx(1.0 / 2.0, abs=1e-6)  # 1/(2 nbar + 1)
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
    assert abs(fock.overlap(state, expected)) == pytest.approx(1.0, abs=1e-9)
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
    assert abs(fock.overlap(state, expected)) == pytest.approx(1.0, abs=1e-9)


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


def test_fidelity_and_overlap():
    t = fock.Truncation(30)
    v0 = fock.fock_state(0, t)
    v1 = fock.fock_state(1, t)
    assert fock.fidelity_tr(v0.density(), v0.density()) == pytest.approx(1.0)
    assert fock.fidelity_tr(v0.density(), v1.density()) == pytest.approx(0.0, abs=1e-15)
    th = fock.thermal_density(1.0, fock.Truncation(60))
    vac = fock.fock_state(0, fock.Truncation(60)).density()
    assert fock.fidelity_tr(vac, th) == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(DimensionMismatch):
        fock.overlap(v0, fock.fock_state(0, fock.Truncation(31)))
    with pytest.raises(DimensionMismatch):
        fock.fidelity_tr(v0.density(), th)
