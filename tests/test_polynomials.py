import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dqsim.polynomials import hermite2, hermite2_rows, laguerre


def test_hermite2_constant():
    for x, y in [(0.3, -1.2), (2 + 1j, -0.5 + 2j)]:
        assert hermite2(0, 0, x, y) == 1


def test_hermite2_hand_expansions():
    # H_{1,1}(x, y) = x y - 1 and H_{2,1}(x, y) = x^2 y - 2 x
    assert hermite2(1, 1, 2, 3) == pytest.approx(5)
    assert hermite2(2, 1, 2, 1) == pytest.approx(0)


def test_hermite2_exchange_symmetry():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n, m = rng.integers(0, 7, size=2)
        x = complex(rng.normal(), rng.normal())
        y = complex(rng.normal(), rng.normal())
        lhs = hermite2(int(n), int(m), x, y)
        rhs = hermite2(int(m), int(n), y, x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_hermite2_accepts_arrays():
    x = np.linspace(-2, 2, 11)
    vals = hermite2(1, 1, x, x)
    np.testing.assert_allclose(vals, x * x - 1.0, rtol=1e-14)


@given(n=st.integers(0, 4), m=st.integers(0, 160), x_sq=st.floats(0.0, 75.0))
def test_hermite2_matches_mpmath_on_k_sum_range(n, m, x_sq):
    # the range the imperfection k sum evaluates; the error is measured against
    # the sum of the moduli of the terms, since the value itself can cancel to 0
    x = math.sqrt(x_sq)
    with mpmath.workdps(50):
        terms = [(-1) ** k * mpmath.binomial(n, k) * mpmath.binomial(m, k) * mpmath.factorial(k)
                 * mpmath.mpf(x) ** (n + m - 2 * k) for k in range(min(n, m) + 1)]
        exact, scale = mpmath.fsum(terms), mpmath.fsum(abs(t) for t in terms)
        assert float(abs(hermite2(n, m, x, x) - exact)) <= 1e-14 * float(scale)


def test_hermite2_rows_match_mpmath_hermite_sum():
    # the heralded rows H_{n-q,m}(x, x) at seeded points of the paper's range, against the
    # Hermite sum itself at 60 digits; rounding x * x alone costs up to 2^-54 |x dH/dx| at
    # the float x, which near a root exceeds 1e-12 |H|, so that much more is allowed
    rng = np.random.default_rng(20)
    with mpmath.workdps(60):
        for _ in range(300):
            n, m = int(rng.integers(0, 9)), int(rng.integers(0, 41))
            alpha_sq, R = rng.uniform(0.0, 60.0), rng.uniform(0.05, 0.95)
            x = math.sqrt(alpha_sq) * math.sqrt(1.0 - R)
            for q, row in enumerate(hermite2_rows(n, m, x, x)):
                a, b = n - q, m
                terms = [(-1) ** k * mpmath.binomial(a, k) * mpmath.binomial(b, k)
                         * mpmath.factorial(k) * mpmath.mpf(x) ** (a + b - 2 * k)
                         for k in range(min(a, b) + 1)]
                exact = mpmath.fsum(terms)
                slope = mpmath.fsum(t * (a + b - 2 * k) for k, t in enumerate(terms))  # x dH/dx
                assert abs(row - exact) <= 1e-12 * abs(exact) + 2.0**-52 * abs(slope), (n, m, q)


@pytest.mark.parametrize("n, m", [(0, 0), (1, 3), (4, 4), (6, 1), (3, 12)])
def test_hermite2_rows_equal_hermite2(n, m):
    # each row is hermite2 itself, on scalars, arrays and polynomials alike, bit for bit
    x = np.linspace(-3.0, 3.0, 41).reshape(41, 1) * np.linspace(0.2, 1.0, 7)
    z = x + 1j * x[::-1]
    poly = np.polynomial.Polynomial([0.3, -1.1, 0.7])
    for a, b in [(x, x), (np.float64(1.7), np.float64(1.7)), (np.conj(z), z),
                 (np.complex128(0.4 - 2j), np.complex128(0.4 + 2j))]:
        rows = hermite2_rows(n, m, a, b)
        assert len(rows) == n + 1
        for q, row in enumerate(rows):
            assert np.array_equal(row, hermite2(n - q, m, a, b))
    for q, row in enumerate(hermite2_rows(n, m, poly, poly)):
        assert np.array_equal(row.coef, hermite2(n - q, m, poly, poly).coef)


def test_laguerre_low_orders():
    assert laguerre(0, 3, 0.7) == 1
    assert laguerre(1, 2, 1.0) == pytest.approx(2.0)  # alpha + 1 - x
    assert laguerre(2, 0, 0.0) == pytest.approx(1.0)


def test_laguerre_negative_upper_index():
    # L_1^(-1)(x) = -x from the generalized series
    for x in (0.0, 0.5, 2.5):
        assert laguerre(1, -1, x) == pytest.approx(-x)


def test_laguerre_three_term_recurrence():
    # (n+1) L_{n+1} = (2n+1+a-x) L_n - (n+a) L_{n-1}, checked relative to
    # the largest term entering the recurrence
    rng = np.random.default_rng(7)
    for _ in range(120):
        n = int(rng.integers(1, 20))
        a = int(rng.integers(-3, 6))
        x = float(rng.uniform(-50, 50))
        lm1 = laguerre(n - 1, a, x)
        l0 = laguerre(n, a, x)
        lp1 = laguerre(n + 1, a, x)
        lhs = (n + 1) * lp1
        rhs = (2 * n + 1 + a - x) * l0 - (n + a) * lm1
        scale = max(abs(lhs), abs((2 * n + 1 + a - x) * l0), abs((n + a) * lm1), 1.0)
        assert abs(lhs - rhs) / scale < 1e-12


def test_invalid_degrees_rejected():
    with pytest.raises(ValueError):
        hermite2(-1, 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        hermite2_rows(2, -1, 1.0, 1.0)
    with pytest.raises(ValueError):
        laguerre(-2, 0, 1.0)
