"""Two-variable Hermite and associated Laguerre polynomials.

`hermite2` evaluates H_{n,m}(x, y) through its Laguerre form

    H_{n,m}(x, y) = (-1)^k k! x^(n-k) y^(m-k) L_k^(|n-m|)(x y),   k = min(n, m),

with L from its three-term recurrence in the degree (DLMF 18.9.1), not
through the alternating power sum, whose terms cancel.  Only one of the two
powers is not x^0 or y^0, and for k = 0 the value is that power, bit for
bit.  Against 60-digit mpmath, on 15,046 random rows H_{n-q,m}(x, x) with
n <= 8, m <= 40, |alpha|^2 <= 60 and R in (0.05, 0.95), 2 rows are off by
more than 1e-12 relative (at most 2.8e-11), against 539 rows (at most
2.3e-9) for the power sum.  Those two lie near a root, where rounding the
product x y alone costs as much: every row is within
1e-12 |H| + 2^-52 |x dH/dx|.

`hermite2` and `laguerre_recurrence` (L alone, for `dq.herald_terms`) use
arithmetic operators only, so x, y and z may be Python or numpy scalars, numpy
arrays or polynomials; `hermite2` raises OverflowError where its k! passes the
float range (k >= 171).  Laguerre arguments are real scalars.
"""

from __future__ import annotations

import math

__all__ = ["hermite2", "hermite2_rows", "laguerre", "laguerre_recurrence"]


def hermite2(n: int, m: int, x, y):
    """Double-index two-variable Hermite polynomial H_{n,m}(x, y).

    H_{n,m}(x, y) = sum_{k=0}^{min(n,m)} C(n,k) C(m,k) (-1)^k k! x^(n-k) y^(m-k)

    Satisfies the exchange symmetry H_{n,m}(x, y) == H_{m,n}(y, x).
    """
    if n < 0 or m < 0:
        raise ValueError("hermite2 indices must be non-negative")
    k, d = min(n, m), abs(n - m)
    power = x**d if n > m else y**d
    if k == 0:
        return power
    return (-1) ** k * float(math.factorial(k)) * power * laguerre_recurrence(k, d, x * y)


def laguerre_recurrence(k: int, d: int, z):
    """L_k^(d)(z) for k, d >= 0 from its three-term recurrence in the degree (DLMF 18.9.1)."""
    prev, lag = 1, 1 + d - z if k else 1
    for j in range(1, k):  # (j + 1) L_{j+1} = (2j + 1 + d - z) L_j - (j + d) L_{j-1}
        prev, lag = lag, ((2 * j + 1 + d - z) * lag - (j + d) * prev) / (j + 1)
    return lag


def hermite2_rows(n: int, m: int, x, y) -> list:
    """[H_{n-q,m}(x, y) for q = 0..n], the Hermite factors of the heralded C_q."""
    if n < 0:
        raise ValueError("hermite2 indices must be non-negative")
    return [hermite2(n - q, m, x, y) for q in range(n + 1)]


def _int_binom(a: int, k: int) -> int:
    """Binomial coefficient C(a, k) for integer a of either sign, k >= 0."""
    if a >= 0:
        return math.comb(a, k)
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
