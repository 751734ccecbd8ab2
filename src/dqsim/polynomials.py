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

import functools
import math

import numpy as np

__all__ = ["hermite2", "hermite2_rows", "laguerre", "row_powers"]


def _powers(x, exponents) -> dict:
    """{j: x ** j} over exponents, each by the ``**`` of an integer exponent (x ** 1 is x)."""
    return {j: x if j == 1 else x**j for j in exponents}


@functools.lru_cache(maxsize=None)
def row_powers(n: int, m: int) -> tuple:
    """Exponents j >= 2 of x in H_{n-q,m}(x, x), q = 0..n (of 0..n and m - n..m), ascending."""
    return tuple(sorted(set(range(2, n + 1)).union(range(max(m - n, 2), m + 1))))


@functools.lru_cache(maxsize=None)
def _terms(n: int, m: int) -> tuple:
    """(coeff, i, j) of H_{n,m}(x, y) = sum coeff x^i y^j, in summation order."""
    return tuple(((-1) ** k * math.comb(n, k) * math.comb(m, k) * math.factorial(k), n - k, m - k)
                 for k in range(min(n, m) + 1))


def _hermite_sum(n: int, m: int, xp: dict, yp: dict):
    """H_{n,m} from the power tables xp[j] = x ** j and yp[j] = y ** j."""
    acc = None
    for coeff, i, j in _terms(n, m):
        term = coeff * xp[i] * yp[j]
        acc = term if acc is None else acc + term
    return acc


def hermite2(n: int, m: int, x, y):
    """Double-index two-variable Hermite polynomial H_{n,m}(x, y).

    H_{n,m}(x, y) = sum_{k=0}^{min(n,m)} C(n,k) C(m,k) (-1)^k k! x^(n-k) y^(m-k)

    Satisfies the exchange symmetry H_{n,m}(x, y) == H_{m,n}(y, x).
    """
    if n < 0 or m < 0:
        raise ValueError("hermite2 indices must be non-negative")
    return _hermite_sum(n, m, _powers(x, range(n + 1)), _powers(y, range(m + 1)))


def hermite2_rows(n: int, m: int, x, y, out=None, work=None) -> list:
    """[H_{n-q,m}(x, y) for q = 0..n], equal to `hermite2` row by row.

    The powers of x and y are computed once for the whole family (once in
    all when y is x) instead of once per row, and only those the terms use:
    x ** 0 .. x ** n and y ** (m - n) .. y ** m.  With out, a real array of
    shape (n + 1,) + x.shape, and y = x, row q is accumulated in out[q] in
    place and out is returned; work holds the `row_powers` and a term
    buffer, one row of x's shape each.  A factor x ** 0 or a coefficient 1
    is left out of its term, as multiplying by 1 is exact.
    """
    if n < 0 or m < 0:
        raise ValueError("hermite2 indices must be non-negative")
    if out is not None:
        high = row_powers(n, m)
        xp = {0: 1.0, 1: x}
        for w, j in zip(work, high):  # as x ** j runs: np.square for j = 2, the power loop above
            xp[j] = np.square(x, out=w) if j == 2 else np.power(x, j, out=w)
        for q, row in enumerate(out):
            for k, (coeff, i, j) in enumerate(_terms(n - q, m)):
                t = work[len(high)] if k else row
                if i and j and coeff == 1:
                    np.multiply(xp[i], xp[j], out=t)
                else:
                    np.multiply(coeff, xp[i or j], out=t)
                    if i and j:
                        t *= xp[j]
                if k:
                    row += t
        return out
    if y is x:
        xp = yp = _powers(x, (0, 1) + row_powers(n, m))
    else:
        xp, yp = _powers(x, range(n + 1)), _powers(y, range(max(m - n, 0), m + 1))
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
    from fractions import Fraction  # imported here, its only use, to keep it off start-up

    xf = Fraction(x)
    acc = Fraction(0)
    for k in range(n + 1):
        coeff = (-1) ** k * _int_binom(n + a, n - k)
        acc += Fraction(coeff, math.factorial(k)) * xf**k
    return float(acc)
