"""Two-variable Hermite and associated Laguerre polynomials.

Both families are evaluated by direct finite summation with exact integer
binomials/factorials.  This is exact for integer-representable arguments
and well conditioned for the degrees used in this package; the integer
coefficients convert to floats without loss up to roughly n + m <= 40.
Asymptotic regimes beyond that are out of scope.

Hermite arguments may be scalars, broadcastable numpy arrays or numpy
polynomials; Laguerre arguments are real scalars.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["hermite2", "laguerre"]


def hermite2(n: int, m: int, x, y):
    """Double-index two-variable Hermite polynomial H_{n,m}(x, y).

    H_{n,m}(x, y) = sum_{k=0}^{min(n,m)} C(n,k) C(m,k) (-1)^k k! x^(n-k) y^(m-k)

    Satisfies the exchange symmetry H_{n,m}(x, y) == H_{m,n}(y, x).
    """
    if n < 0 or m < 0:
        raise ValueError("hermite2 indices must be non-negative")
    acc = None
    for k in range(min(n, m) + 1):
        coeff = (-1) ** k * math.comb(n, k) * math.comb(m, k) * math.factorial(k)
        term = coeff * x ** (n - k) * y ** (m - k)
        acc = term if acc is None else acc + term
    return acc


def _int_binom(a: int, k: int) -> int:
    """Binomial coefficient C(a, k) for integer a of either sign, k >= 0."""
    if k < 0:
        return 0
    if a >= 0:
        return math.comb(a, k) if k <= a else 0
    # C(a, k) = (-1)^k C(k - a - 1, k) for negative integer a
    return (-1) ** k * math.comb(k - a - 1, k)


def laguerre(n: int, a: int, x) -> float:
    """Associated Laguerre polynomial L_n^(a)(x) for integer index a and real scalar x.

    Evaluated through the finite series

        L_n^(a)(x) = sum_{k=0}^{n} (-1)^k C(n+a, n-k) x^k / k!

    which stays valid when ``a`` is a negative integer because the
    binomial is the generalized one over integers.  The series is summed
    in exact rational arithmetic (floats are exact binary rationals), so
    the returned value is correct to the last bit even in the oscillatory
    regime.
    """
    if n < 0:
        raise ValueError("laguerre degree must be non-negative")
    xf = Fraction(x)
    acc = Fraction(0)
    for k in range(n + 1):
        coeff = (-1) ** k * _int_binom(n + a, n - k)
        acc += Fraction(coeff, math.factorial(k)) * xf**k
    return float(acc)
