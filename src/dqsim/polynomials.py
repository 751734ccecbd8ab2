"""Two-variable Hermite and associated Laguerre polynomials.

Both families are evaluated by direct finite summation with exact integer
binomials/factorials.  Against 50-digit mpmath, hermite2 at real x = y with
n <= 4, m <= 160 and x^2 <= 75 (the reach of the imperfection k sum) is off
by at most 1e-14 of the sum of the moduli of its terms, so its relative
error grows only where the terms cancel, near a root.

Hermite arguments may be scalars, broadcastable numpy arrays or numpy
polynomials; Laguerre arguments are real scalars.  `hermite2_rows` gives the
family H_{n-q,m}(x, y), q = 0..n, that the heralded coefficients need from
one table of the powers of x and y, computed once each; every value is the
same `hermite2` sum over the same powers, so the two agree bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["hermite2", "hermite2_rows", "laguerre"]


def _powers(x, top: int) -> list:
    """x ** 0 .. x ** top, each by the ``**`` of an integer exponent."""
    return [x**j for j in range(top + 1)]


def _hermite_sum(n: int, m: int, xp: list, yp: list):
    """H_{n,m} from the power tables xp[j] = x ** j and yp[j] = y ** j."""
    acc = None
    for k in range(min(n, m) + 1):
        coeff = (-1) ** k * math.comb(n, k) * math.comb(m, k) * math.factorial(k)
        term = coeff * xp[n - k] * yp[m - k]
        acc = term if acc is None else acc + term
    return acc


def hermite2(n: int, m: int, x, y):
    """Double-index two-variable Hermite polynomial H_{n,m}(x, y).

    H_{n,m}(x, y) = sum_{k=0}^{min(n,m)} C(n,k) C(m,k) (-1)^k k! x^(n-k) y^(m-k)

    Satisfies the exchange symmetry H_{n,m}(x, y) == H_{m,n}(y, x).
    """
    if n < 0 or m < 0:
        raise ValueError("hermite2 indices must be non-negative")
    return _hermite_sum(n, m, _powers(x, n), _powers(y, m))


def hermite2_rows(n: int, m: int, x, y) -> list:
    """[H_{n-q,m}(x, y) for q = 0..n], equal to `hermite2` row by row.

    The powers of x and y are computed once for the whole family (once in
    all when y is x) instead of once per row.
    """
    if n < 0 or m < 0:
        raise ValueError("hermite2 indices must be non-negative")
    if y is x:
        xp = yp = _powers(x, max(n, m))
    else:
        xp, yp = _powers(x, n), _powers(y, m)
    return [_hermite_sum(n - q, m, xp, yp) for q in range(n + 1)]


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
