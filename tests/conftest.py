"""One derandomized hypothesis profile without deadline, so property tests are reproducible, and
the mpmath references that more than one test module compares against."""

from itertools import product

import mpmath
from hypothesis import settings

settings.register_profile("dqsim", derandomize=True, deadline=None)
settings.load_profile("dqsim")


def mp_components(n, m, alpha_sq, R, eta_d=1):
    """u_l[q] = K a_l b_q g_{n-l-q} as rows l = 0..n of 60-digit mpf values, 0 where l + q > n,
    for real alpha, with H_{k,m} from the Laguerre recurrence; combine them at workdps(60)."""
    with mpmath.workdps(60):
        R, eta, y2 = mpmath.mpf(R), mpmath.mpf(eta_d), eta_d * mpmath.mpf(alpha_sq) * (1 - R)
        f = mpmath.factorial
        g = []
        for k in range(n + 1):
            j, d = min(k, m), abs(k - m)
            prev, lag = 1, 1 + d - y2 if j else 1
            for i in range(1, j):  # (i + 1) L_{i+1} = (2i + 1 + d - z) L_i - (i + d) L_{i-1}
                prev, lag = lag, ((2 * i + 1 + d - y2) * lag - (i + d) * prev) / (i + 1)
            h = (-1) ** j * f(j) * mpmath.sqrt(y2) ** d * lag
            g.append(mpmath.sqrt(f(n) / f(m) * mpmath.exp(-y2) * (eta * R) ** k) * h / f(k))
        a = [mpmath.sqrt(((1 - eta) * R) ** l / f(l)) for l in range(n + 1)]
        b = [mpmath.sqrt((1 - R) ** q / f(q)) for q in range(n + 1)]
        return [[a[l] * b[q] * g[n - l - q] if l + q <= n else mpmath.mpf(0) for q in range(n + 1)]
                for l in range(n + 1)]


def mp_rho_bare(n, m, a2, R, eta_d, eta_s, k_max):
    """Unnormalized rho_bare over levels 0..n, a 50-digit mpmath matrix, from the sum over the
    k = m..k_max - 1 photons the lossy detector saw, real alpha; its trace is the realized p."""
    with mpmath.workdps(50):
        R, eta_d, eta_s = mpmath.mpf(R), mpmath.mpf(eta_d), mpmath.mpf(eta_s)
        x = mpmath.sqrt(mpmath.mpf(a2) * (1 - R))
        f = mpmath.factorial
        rho = mpmath.zeros(n + 1)
        for n_src, branch in ((n, eta_s), (0, 1 - eta_s)):
            for k in range(m, k_max):  # C_q = C(n,q) sqrt(q!) ((1-R)/R)^(q/2) H_{n-q,k}(x, x)
                c = [mpmath.binomial(n_src, q) * mpmath.sqrt(f(q)) * ((1 - R) / R) ** (q / 2.0)
                     * mpmath.fsum((-1) ** i * mpmath.binomial(n_src - q, i)
                                   * mpmath.binomial(k, i) * f(i) * x ** (n_src - q + k - 2 * i)
                                   for i in range(min(n_src - q, k) + 1))
                     for q in range(n_src + 1)]
                w = mpmath.binomial(k, m) * eta_d**m * (1 - eta_d) ** (k - m)
                scale = branch * w * R**n_src * mpmath.exp(-(x**2)) / (f(k) * f(n_src))
                for i, j in product(range(n_src + 1), repeat=2):
                    rho[i, j] += scale * c[i] * c[j]
        return rho
