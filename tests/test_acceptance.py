"""End-to-end acceptance suite.

Every check prints one ``ACCEPTANCE <name>: PASS/FAIL`` line (visible with
``pytest -s``; the -v test ids carry the same information) and asserts the
target value at its stated tolerance.  Expected values are frozen here;
tolerances are never relaxed at run time.

The published tables are kept as printed.  Where a published value is
wrong, an errata mapping beside its table holds the verified value and a
one-line reason; the check re-derives that value (closed form, eigenvalue
bound, two-mode or displaced-parity oracle) before it compares against it,
and its ACCEPTANCE line shows both the published and the verified value.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.optimize import minimize, minimize_scalar

from dqsim import dq, fock, imperfections, nongauss, squeezing


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# squeezing optima over the heralding grid

TABLE1_CELLS = {
    # (n, m): (min_var, alpha_sq, R)
    (2, 1): (0.2753, 5.45, 0.8175),
    (2, 2): (0.2753, 10.95, 0.8175),
    (2, 3): (0.2753, 16.45, 0.8175),
    (2, 4): (0.2753, 21.63, 0.8175),
    (3, 1): (0.2353, 6.00, 0.7650),
    (3, 2): (0.2448, 13.75, 0.7975),
    (3, 3): (0.2489, 21.60, 0.8125),
    (3, 4): (0.2511, 28.87, 0.8175),
    (4, 1): (0.2121, 6.65, 0.7275),
    (4, 2): (0.2288, 16.65, 0.7875),
    (4, 3): (0.2411, 14.50, 0.8600),
    (4, 4): (0.2447, 23.02, 0.8675),
}

# (n, m): ((min_var, alpha_sq, R) verified, reason)
TABLE1_ERRATA = {
    (4, 3): (
        (0.2354, 26.38, 0.8085),
        "published point is only a local minimum; the global box minimum lies lower",
    ),
}

VAR_TOL = 5e-4
ALPHA_SQ_STEP = 0.05
R_STEP = 0.0025


@pytest.fixture(scope="module")
def table1_records():
    start = time.perf_counter()
    records = {
        (n, m): squeezing.optimize_cm_squeezing(n, m) for (n, m) in TABLE1_CELLS
    }
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"squeezing-optima scan took {elapsed:.0f}s (>10 min)"
    return records


def _var_x(n, m, alpha_sq, R):
    return float(squeezing.variance_x_map(n, m, alpha_sq, R))


def _oracle_var_x(n, m, alpha_sq, R):
    """X variance of the two-mode brute-force heralded state, by dense matrices."""
    alpha = complex(math.sqrt(alpha_sq))
    t = fock.Truncation.auto(alpha, n, m)
    psi, _ = fock.brute_force_cm(n, m, alpha, R, t)
    a = fock.annihilation_matrix(t)
    xv = ((a + a.conj().T) / math.sqrt(2.0)) @ psi.amps
    return float(np.vdot(xv, xv).real - np.vdot(psi.amps, xv).real ** 2)


@pytest.mark.parametrize("cell", sorted(TABLE1_CELLS), ids=lambda c: f"n{c[0]}-m{c[1]}")
def test_table1_cell(table1_records, cell):
    # The published (|alpha|^2, R) are rounded points in a nearly flat valley,
    # so the optimum is located by the oracle and the grid stencil instead of
    # by distance to the published point.
    n, m = cell
    var_pub, a2_pub, r_pub = TABLE1_CELLS[cell]
    (var_ref, a2_ref, r_ref), reason = TABLE1_ERRATA.get(cell, (TABLE1_CELLS[cell], None))
    rec = table1_records[cell]
    # (a) the published point gives the published variance
    at_published = _var_x(n, m, a2_pub, r_pub)
    # (b) the two-mode oracle confirms the optimum and no grid-step neighbour is lower
    oracle_gap = abs(_oracle_var_x(n, m, rec.alpha_sq, rec.R) - rec.min_var)
    stencil = min(
        _var_x(n, m, rec.alpha_sq + i * ALPHA_SQ_STEP, rec.R + j * R_STEP)
        for i in (-1, 0, 1)
        for j in (-1, 0, 1)
        if (i, j) != (0, 0)
    )
    ok = (
        abs(rec.min_var - var_ref) <= VAR_TOL
        and abs(at_published - var_pub) <= VAR_TOL
        and oracle_gap <= 1e-8
        and stencil >= rec.min_var
    )
    detail = f"oracle gap {oracle_gap:.1e}, stencil margin {stencil - rec.min_var:.1e}"
    if n == 2:
        # (c) the qutrit optimum has c_1 = 0, i.e. |alpha|^2 (1 - R) = m, and
        # c_2 / c_0 = -sqrt(2) (1 - R) / R, which fixes R = sqrt(2/3)
        a2_exact, r_exact = m * (3.0 + math.sqrt(6.0)), math.sqrt(2.0 / 3.0)
        ok = ok and abs(rec.alpha_sq - a2_exact) <= 1e-4 and abs(rec.R - r_exact) <= 1e-4
        detail += f", closed form ({a2_exact:.4f}, {r_exact:.5f})"
    if reason is not None:
        # erratum: a descent from the published point stops at the published
        # variance, well above the global record
        local = minimize(
            lambda p: _var_x(n, m, p[0], p[1]),
            x0=np.array([a2_pub, r_pub]),
            method="Nelder-Mead",
            options={"xatol": 1e-6, "fatol": 1e-10},
        )
        ok = (
            ok
            and abs(local.fun - var_pub) <= VAR_TOL
            and rec.min_var < local.fun - VAR_TOL
            and abs(rec.alpha_sq - a2_ref) <= ALPHA_SQ_STEP
            and abs(rec.R - r_ref) <= R_STEP
        )
        detail += (
            f", published point descends to local {local.fun:.5f} at "
            f"({local.x[0]:.2f}, {local.x[1]:.4f}); erratum: {reason}"
        )
    _report(
        f"table1 cell n={n} m={m}",
        ok,
        f"published ({var_pub}, {a2_pub}, {r_pub}) gives var {at_published:.5f}; "
        f"verified ({var_ref}, {a2_ref}, {r_ref}), found var={rec.min_var:.5f} at "
        f"({rec.alpha_sq:.4f}, {rec.R:.5f}); {detail}",
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_table1_vacuum_detection_row(n):
    var_ref = {1: 0.3750, 2: 0.3223, 3: 0.2913, 4: 0.2700}[n]
    vals = [squeezing.m0_locus_variance(n, R) for R in (0.2, 0.45, 0.7, 0.9)]
    ok = max(vals) - min(vals) < 1e-9 and abs(vals[0] - var_ref) <= VAR_TOL
    _report(
        f"table1 vacuum-detection locus n={n}",
        ok,
        f"variance {vals[0]:.5f} vs {var_ref} (constant over R to {max(vals)-min(vals):.1e})",
    )


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_table1_single_photon_input_locus(m):
    # evaluate both printed branches across R; either branch may realize the
    # optimum at a given R
    worst = 0.0
    for R in np.linspace(0.1, 0.9, 17):
        devs = []
        for a2 in squeezing.n1_optimal_alpha_sq(m, float(R)):
            if a2 <= 0:
                continue
            devs.append(abs(float(squeezing.variance_x_map(1, m, a2, float(R))) - 0.3750))
        worst = max(worst, min(devs))
    ok = worst <= VAR_TOL
    _report(
        f"table1 single-photon locus m={m}",
        ok,
        f"worst branch-best |var - 0.3750| over R grid = {worst:.5f}",
    )


# ---------------------------------------------------------------------------
# free superposition optima and the comparison column

TABLE2_FOCK = {1: 0.3750, 2: 0.2753, 3: 0.2298, 4: 0.1902, 5: 0.1645, 6: 0.1451}
TABLE2_DIFF = {1: 0.0, 2: 0.0, 3: 0.0055, 4: 0.0219, 5: 0.0318, 6: 0.0394}

# n: ((fock_min_var, difference) verified, reason)
TABLE2_ERRATA = {
    5: (
        (0.1666, 0.0297),
        "0.1645 lies below the 6-level eigenvalue bound; the heralded 0.1963 is right",
    ),
}


def _superposition_bound(n):
    """min over unit c on |0>..|n> of Var X, as min_t lambda_min(P (X - t)^2 P)."""
    a = fock.annihilation_matrix(fock.Truncation(n + 2)).real
    x = (a + a.T) / math.sqrt(2.0)
    x1 = x[: n + 1, : n + 1]
    x2 = (x @ x)[: n + 1, : n + 1]

    def lam(t):
        return float(np.linalg.eigvalsh(x2 - 2.0 * t * x1 + t * t * np.eye(n + 1))[0])

    # parity maps X to -X, so lam is even in t; a coarse scan brackets the minimum
    ts = np.linspace(0.0, 3.0, 61)
    i = int(np.argmin([lam(t) for t in ts]))
    bracket = (ts[max(i - 1, 0)], ts[min(i + 1, ts.size - 1)])
    return float(minimize_scalar(lam, bounds=bracket, method="bounded",
                                 options={"xatol": 1e-10}).fun)


@pytest.fixture(scope="module")
def table2_rows():
    return {row.n: row for row in squeezing.table2()}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_table2_row(table2_rows, n):
    row = table2_rows[n]
    bound = _superposition_bound(n)
    (fock_ref, diff_ref), reason = TABLE2_ERRATA.get(n, ((TABLE2_FOCK[n], TABLE2_DIFF[n]), None))
    ok = (
        abs(row.fock_min_var - bound) <= 1e-6
        and abs(row.fock_min_var - fock_ref) <= 1e-3
        and abs(row.difference - diff_ref) <= 1.5e-3
    )
    detail = (
        f"fock {row.fock_min_var:.5f} vs published {TABLE2_FOCK[n]}, verified {fock_ref}, "
        f"bound {bound:.7f}; difference {row.difference:.5f} vs published "
        f"{TABLE2_DIFF[n]}, verified {diff_ref}"
    )
    if reason is not None:
        # erratum: fock = bound, and the published heralded optimum
        # fock + difference stays, so difference = (fock + difference) - bound
        heralded = TABLE2_FOCK[n] + TABLE2_DIFF[n]
        ok = (
            ok
            and TABLE2_FOCK[n] < bound - 1e-3
            and abs(bound - fock_ref) <= 5e-5
            and abs(heralded - bound - diff_ref) <= 5e-5
        )
        detail += f"; erratum: {reason}"
    _report(f"table2 row n={n}", ok, detail)


# ---------------------------------------------------------------------------
# benchmark success probabilities and Wigner negativities

TABLE3 = {
    # n: (alpha_sq, R, success_prob at eta_d = eta_s = 0.9, wigner negativity)
    1: (3.05, 0.6000, 0.1898, 0.0298),
    2: (5.45, 0.8175, 0.1699, 0.0580),
    3: (6.00, 0.7650, 0.1534, 0.0711),
    4: (6.65, 0.7275, 0.1392, 0.0784),
}


def _benchmark_cfg(n):
    a2, R, _, _ = TABLE3[n]
    return dq.CMConfig(n, 1, complex(math.sqrt(a2)), R)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_table3_success_probability(n):
    _, _, sp_ref, _ = TABLE3[n]
    cfg = _benchmark_cfg(n)
    _, prob = imperfections.realized_state(cfg, imperfections.ImperfectionParams(0.9, 0.9))
    ok = abs(prob - sp_ref) <= 2e-3
    _report(f"table3 success probability n={n}", ok, f"{prob:.5f} vs {sp_ref}")


def _squeezed_qubit_proof(state, wn_ref):
    """The state at the corrected point is the optimal qubit, on the m = 1 locus."""
    var_x = squeezing.quadratures(state).var_x
    return abs(var_x - 0.375) <= 1e-5, f"Var X {var_x:.7f} = 3/8"


def _converged_negativity_proof(state, wn_ref):
    """Closed form pinned to the displaced-parity oracle, then a refined integral."""
    cfg = state.config
    rho = dq.to_fock(state, fock.Truncation.auto(cfg.alpha, cfg.n, cfg.m)).density()
    g = state.displacement
    half = nongauss.default_grid(state, 401).xs[-1] - g.real
    # near the state, far out on the real axis, and two midpoints of the window edge
    points = [g + 1.0 - 1.0j, -3.0 + 0j, g - half, g + 1j * half]
    pointwise = max(
        abs(nongauss.wigner_closed(state, b) - nongauss.wigner_oracle(rho, b)) for b in points
    )
    fine = nongauss.default_grid(state, 1601)
    absW = np.abs(nongauss.wigner_closed(state, fine.mesh()))
    refined = float(simpson(simpson(absW, x=fine.ps, axis=1), x=fine.xs)) - 1.0
    ok = pointwise <= 1e-7 and abs(refined - wn_ref) <= 2e-4
    return ok, f"closed vs oracle {pointwise:.1e}, 1601-point negativity {refined:.5f}"


# n: (alpha_sq, R, wigner negativity, reason, proof) for the negativity column
TABLE3_NEGATIVITY_ERRATA = {
    1: (
        3.05**2,
        0.6000,
        0.0298,
        "the published negativity belongs to |alpha| = 3.05, not |alpha|^2 = 3.05",
        _squeezed_qubit_proof,
    ),
    4: (
        6.65,
        0.7275,
        0.0759,
        "the published value sits above the grid-converged negativity",
        _converged_negativity_proof,
    ),
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_table3_wigner_negativity(n):
    a2_pub, r_pub, _, wn_pub = TABLE3[n]
    a2, R, wn_ref, reason, proof = TABLE3_NEGATIVITY_ERRATA.get(
        n, (a2_pub, r_pub, wn_pub, None, None)
    )
    state, _ = dq.build_dq(dq.CMConfig(n, 1, complex(math.sqrt(a2)), R))
    wn = nongauss.wigner_negativity(state, nongauss.default_grid(state, 401))
    ok = abs(wn - wn_ref) <= 2e-3
    detail = f"{wn:.5f} at ({a2:.4f}, {R}) vs published {wn_pub}, verified {wn_ref}"
    if reason is not None:
        proved, why = proof(state, wn_ref)
        ok = ok and proved
        detail += f"; {why}; erratum: {reason}"
    _report(f"table3 wigner negativity n={n}", ok, detail)


# ---------------------------------------------------------------------------
# non-Gaussianity maxima over the parameter box

HSD_MAXIMA = {
    (1, 0): 0.4167,
    (1, 2): 0.4167,
    (2, 1): 0.4518,
    (2, 3): 0.4518,
}


@pytest.mark.parametrize("pair", sorted(HSD_MAXIMA), ids=lambda p: f"n{p[0]}-m{p[1]}")
def test_hsd_maximum(pair):
    n, m = pair
    value, a2, R, on_boundary = nongauss.hsd_max(n, m)
    ok = abs(value - HSD_MAXIMA[pair]) <= 2e-3
    _report(
        f"hsd maximum n={n} m={m}",
        ok,
        f"max {value:.4f} vs {HSD_MAXIMA[pair]} at ({a2:.2f}, {R:.3f})"
        + (" [on box boundary]" if on_boundary else ""),
    )


# ---------------------------------------------------------------------------
# closed form against the two-mode oracle

def test_oracle_equivalence_suite():
    rng = np.random.default_rng(20240613)
    draws = [
        (float(rng.uniform(0.3, 6.0)), float(rng.uniform(0.08, 0.92))) for _ in range(25)
    ]
    t = fock.Truncation.auto(math.sqrt(6.0), 4, 6)
    a_mat = fock.annihilation_matrix(t)
    ops = {
        (l, s): np.linalg.matrix_power(a_mat.conj().T, l) @ np.linalg.matrix_power(a_mat, s)
        for (l, s) in [(0, 1), (0, 2), (1, 1), (2, 2)]
    }
    worst_overlap = 0.0
    worst_prob = 0.0
    worst_moment = 0.0
    for a2, R in draws:
        alpha = math.sqrt(a2)
        for n in range(5):
            for m in range(7):
                cfg = dq.CMConfig(n, m, complex(alpha), R)
                state, p_closed = dq.build_dq(cfg)
                oracle, p_brute = fock.brute_force_cm(n, m, complex(alpha), R, t)
                v = dq.to_fock(state, t)
                worst_overlap = max(
                    worst_overlap, abs(abs(fock.overlap(v, oracle)) - 1.0)
                )
                worst_prob = max(worst_prob, abs(p_closed - p_brute))
                for (l, s), op in ops.items():
                    dense = complex(np.vdot(v.amps, op @ v.amps))
                    worst_moment = max(
                        worst_moment, abs(squeezing.moment(state, l, s) - dense)
                    )
    ok = worst_overlap < 1e-8 and worst_prob < 1e-8 and worst_moment < 1e-9
    _report(
        "oracle equivalence suite",
        ok,
        f"|overlap|-1 worst {worst_overlap:.2e}, probability worst {worst_prob:.2e}, "
        f"moment worst {worst_moment:.2e}",
    )


# ---------------------------------------------------------------------------
# coefficient formula cross-checks and root loci

def test_coefficient_formula_cross_checks():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        alpha = float(rng.uniform(0.2, 2.5))
        R = float(rng.uniform(0.05, 0.95))
        for n in range(6):
            for m in range(8):
                cfg = dq.CMConfig(n, m, complex(alpha), R)
                for q in range(n + 1):
                    h = dq.raw_coefficients(cfg)[q]
                    l = dq.coefficient_laguerre(cfg, q)
                    worst = max(worst, abs(h - l) / max(abs(h), abs(l), 1e-30))
    ok = worst < 1e-10
    _report("coefficient formula cross-check", ok, f"worst relative gap {worst:.2e}")


def test_chi_root_loci():
    checks = [
        (1, 2, 0, 2.0),
        (2, 1, 0, 2.0),
        (2, 1, 1, 1.0),
        (2, 3, 0, 3.0 - math.sqrt(3.0)),
        (2, 3, 0, 3.0 + math.sqrt(3.0)),
        (2, 3, 1, 3.0),
    ]
    worst = 0.0
    for n, m, q, chi_root in checks:
        for R in (0.25, 0.5, 0.75):
            alpha = math.sqrt(chi_root / (1 - R))
            worst = max(worst, abs(dq.raw_coefficients(dq.CMConfig(n, m, complex(alpha), R))[q]))
    ok = worst < 1e-10
    _report("chi root loci", ok, f"worst |coefficient| at roots {worst:.2e}")


# ---------------------------------------------------------------------------
# structural invariants

def test_structural_povm_completeness():
    worst = 0.0
    t = fock.Truncation(40)
    for eta in (0.25, 0.5, 0.9, 1.0):
        total = np.zeros(t.dim)
        for m in range(t.dim):
            total += np.diag(imperfections.povm_element(m, eta, t).mat).real
        worst = max(worst, float(np.max(np.abs(total - 1.0))))
    ok = worst < 1e-10
    _report("povm completeness", ok, f"worst deviation {worst:.2e}")


def test_structural_realized_state_physicality():
    worst_h, worst_t, worst_e = 0.0, 0.0, 0.0
    for n in TABLE3:
        cfg = _benchmark_cfg(n)
        rho, _ = imperfections.realized_state(
            cfg, imperfections.ImperfectionParams(0.8, 0.85)
        )
        worst_h = max(worst_h, rho.hermiticity_defect())
        worst_t = max(worst_t, abs(rho.trace() - 1.0))
        worst_e = max(worst_e, max(0.0, -rho.min_eigenvalue()))
    ok = worst_h < 1e-12 and worst_t < 1e-10 and worst_e < 1e-10
    _report(
        "realized state physicality",
        ok,
        f"hermiticity {worst_h:.1e}, trace {worst_t:.1e}, negativity {worst_e:.1e}",
    )


def test_structural_wigner_normalization():
    worst = 0.0
    for n in TABLE3:
        state, _ = dq.build_dq(_benchmark_cfg(n))
        grid = nongauss.default_grid(state, 401)
        W = nongauss.wigner_closed(state, grid.mesh())
        integral = float(simpson(simpson(W, x=grid.ps, axis=1), x=grid.xs))
        worst = max(worst, abs(integral - 1.0))
    ok = worst < 1e-3
    _report("wigner normalization", ok, f"worst |integral - 1| = {worst:.2e}")


def test_structural_uncertainty_and_displacement_invariance():
    rng = np.random.default_rng(77)
    worst_uncert = 0.0
    worst_shift = 0.0
    for _ in range(20):
        size = int(rng.integers(1, 6))
        c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        beta = complex(rng.normal(), rng.normal())
        st = dq.DQState.from_coeffs(c, displacement=beta)
        rep = squeezing.quadratures(st)
        worst_uncert = max(worst_uncert, 0.25 - rep.var_x * rep.var_p)
        extra = complex(rng.normal(), rng.normal())
        rep2 = squeezing.quadratures(dq.DQState(beta + extra, st.coeffs.copy()))
        worst_shift = max(
            worst_shift, abs(rep.var_x - rep2.var_x), abs(rep.var_p - rep2.var_p)
        )
    ok = worst_uncert <= 1e-9 and worst_shift <= 1e-10
    _report(
        "uncertainty and displacement invariance",
        ok,
        f"uncertainty slack {worst_uncert:.1e}, variance shift {worst_shift:.1e}",
    )


def test_structural_hsd_bounds():
    rng = np.random.default_rng(123)
    worst_low, worst_high = 0.0, 0.0
    for _ in range(40):
        c = rng.standard_normal(int(rng.integers(2, 5)))
        val = nongauss.hsd_of_coeffs(c)
        worst_low = max(worst_low, -val)
        worst_high = max(worst_high, val - 0.5)
    ok = worst_low <= 1e-9 and worst_high <= 1e-6
    _report("hsd bounds", ok, f"below-zero {worst_low:.1e}, above-half {worst_high:.1e}")


def test_structural_squeezing_or_gaussianity():
    # wherever the non-Gaussianity vanishes on the scan grids the state is
    # squeezed, except on the (displaced) coherent locus
    for n, m in [(1, 0), (1, 2), (2, 1), (2, 3)]:
        a_vals = np.linspace(0.25, 16.0, 24)
        r_vals = np.linspace(0.05, 0.95, 19)
        deltas = nongauss.hsd_scan(n, m, a_vals, r_vals)
        variances = squeezing.variance_x_map(n, m, a_vals[:, None], r_vals[None, :])
        coherent_like = np.zeros_like(deltas, dtype=bool)
        for i, a2 in enumerate(a_vals):
            coeffs = dq.coefficients_grid(n, m, math.sqrt(a2), r_vals)
            weight = np.abs(coeffs) ** 2
            coherent_like[i] = weight[0] / weight.sum(axis=0) > 1.0 - 1e-6
        flat = (deltas < 1e-3) & ~coherent_like
        assert np.all(variances[flat] < 0.5), f"(n={n}, m={m}) cell fails complementarity"
    _report("squeezing/non-Gaussianity complementarity", True, "all scan cells consistent")


# ---------------------------------------------------------------------------
# ideal-limit regression

def test_ideal_limit_regression():
    worst = 0.0
    for n in TABLE3:
        cfg = _benchmark_cfg(n)
        t = fock.Truncation.auto(cfg.alpha, cfg.n, cfg.m)
        fid = imperfections.realized_fidelity(cfg, imperfections.ImperfectionParams(1.0, 1.0), t)
        worst = max(worst, abs(fid - 1.0))
        rows = imperfections.fidelity_heatmap(cfg, [0.5, 1.0], [0.5, 1.0], t)
        corner = {(d, s): f for d, s, f in rows}[(1.0, 1.0)]
        worst = max(worst, abs(corner - 1.0))
        assert all(-1e-9 <= f <= 1 + 1e-9 for _, _, f in rows)
    ok = worst < 1e-8
    _report("ideal-limit regression", ok, f"worst |fidelity - 1| = {worst:.2e}")
