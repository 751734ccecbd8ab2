"""Output checks, run after the timed region.

``tables`` and ``maps`` outputs are compared with reference outputs recorded
at the seed commit by ``record_reference.py``.  ``cli-calls`` outputs are
checked against the package's independent oracles: the two-mode Fock
evolution ``fock.brute_force_cm`` for ``state`` and ``optimize``, the
displaced-parity ``nongauss.wigner_oracle`` at sample points for ``wigner``,
and ``imperfections.realized_fidelity`` at sample cells for
``fidelity-map``.

Each check returns ``None`` when the output agrees, else a one-line reason.
Tolerances are the per-quantity ones in ``dqsim.cli.TOLERANCES``, applied
as ``|new - ref| <= tol * max(1, |ref|)``; columns without one must match
exactly.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
import random
from pathlib import Path

REFERENCE_DIR = Path(__file__).with_name("reference")

# TOLERANCES has no entry for where an optimum lies.  The X variance is
# flat near its minimum, so a last-digit change in the objective can move
# the Nelder-Mead end point far more than the value it reaches.
OPTIMIZER_LOCATION_TOL = 1e-3

COLUMN_TOLERANCES = {
    "table1": {
        "min_var": "optimizer_variance",
        "alpha_sq": "optimizer_location",
        "R": "optimizer_location",
    },
    "table2": {c: "optimizer_variance" for c in ("dq_min_var", "fock_min_var", "difference")},
    "table3": {
        "success_prob": "success_probability",
        "success_prob_ideal": "success_probability",
        "wigner_negativity": "wigner_negativity_quadrature",
    },
    # the HSD is 1/2 (1 - 2 Tr(rho tau) + Tr tau^2), so it inherits the overlap tolerance
    "hsd-scan": {"value": "oracle_overlap"},
    "scan": {"value": "moments_vs_matrix"},
}

WIGNER_SAMPLES = 8
SUPPORT_FRACTION = 1e-3  # sample where |W| is at least this share of its peak
FIDELITY_SAMPLES = 6


def reference_path(argv: list[str]) -> Path:
    return REFERENCE_DIR / ("_".join(a.lstrip("-") for a in argv) + ".csv.gz")


def parse(argv: list[str], text: str) -> tuple[list[str], list[list]]:
    """Header and rows of a CSV or JSON output."""
    if "json" in argv:
        obj = json.loads(text)
        return obj["columns"], obj["data"]
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _close(new: float, ref: float, tol: float) -> bool:
    if math.isnan(ref):
        return math.isnan(new)
    return abs(new - ref) <= tol * max(1.0, abs(ref))


def check_reference(argv: list[str], text: str, tolerances: dict) -> str | None:
    tolerances = dict(tolerances, optimizer_location=OPTIMIZER_LOCATION_TOL)
    with gzip.open(reference_path(argv), "rt", encoding="utf-8") as fh:
        ref_header, ref_rows = parse(argv, fh.read())
    header, rows = parse(argv, text)
    if header != ref_header or len(rows) != len(ref_rows):
        return f"shape {header} x {len(rows)} differs from reference {ref_header} x {len(ref_rows)}"
    col_tol = COLUMN_TOLERANCES[argv[0]]
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col, new, old in zip(header, row, ref):
            key = col_tol.get(col)
            if key is None:
                ok = new == old
            else:
                ok = _close(float(new), float(old), tolerances[key])
            if not ok:
                return f"row {i} {col}: {new} vs reference {old}"
    return None


class Oracles:
    """Independent recomputation of ``cli-calls`` outputs, cached per configuration."""

    def __init__(self, seed: int) -> None:
        import numpy as np

        from dqsim import cli, dq, fock, imperfections, nongauss
        from dqsim.errors import ZeroProbability

        self.np, self.dq, self.fock = np, dq, fock
        self.imperfections, self.nongauss = imperfections, nongauss
        self.ZeroProbability = ZeroProbability
        self.tol = cli.TOLERANCES
        self.rng = random.Random(seed)
        self._states: dict = {}

    def check(self, argv: list[str], text: str) -> str | None:
        opts = dict(zip(argv[1::2], argv[2::2]))
        n, m = int(opts["--n"]), int(opts["--m"])
        header, rows = parse(argv, text)
        if argv[0] == "optimize":
            return self._optimize(n, m, rows)
        a2, R = float(opts["--alpha-sq"]), float(opts["--R"])
        return getattr(self, "_" + argv[0].replace("-", "_"))(n, m, a2, R, rows)

    # -- helpers -----------------------------------------------------------

    def _brute(self, n: int, m: int, a2: float, R: float):
        key = (n, m, a2, R)
        if key not in self._states:
            self._states[key] = self.fock.brute_force_cm(n, m, complex(math.sqrt(a2)), R)
        return self._states[key]

    def _variances(self, amps) -> tuple[float, float]:
        """Var X and Var P of a Fock vector, X = (a + a^dag)/sqrt 2."""
        np = self.np
        dim = amps.size + 2
        w = np.zeros(dim, dtype=complex)
        w[: amps.size] = amps
        a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
        out = []
        for op in ((a + a.T) / math.sqrt(2.0), (a - a.T) / (1j * math.sqrt(2.0))):
            v = op @ w
            out.append(float(np.vdot(v, v).real - np.vdot(w, v).real ** 2))
        return out[0], out[1]

    def _near(self, what: str, new: float, ref: float, key: str) -> str | None:
        if _close(new, ref, self.tol[key]):
            return None
        return f"{what} {new!r} vs oracle {ref!r} (tolerance {key})"

    # -- per command -------------------------------------------------------

    def _state(self, n, m, a2, R, rows) -> str | None:
        np = self.np
        f = {row[0]: row[1] for row in rows}
        psi, prob = self._brute(n, m, a2, R)
        g = complex(float(f["displacement_re"]), float(f["displacement_im"]))
        padded = np.zeros(psi.amps.size, dtype=complex)
        for q in range(n + 1):
            padded[q] = complex(float(f[f"coeff_{q}_re"]), float(f[f"coeff_{q}_im"]))
        phi = self.fock.displacement_matrix(g, self.fock.Truncation(psi.amps.size)) @ padded
        fid = abs(np.vdot(psi.amps, phi)) ** 2
        var_x, var_p = self._variances(psi.amps)
        return (
            self._near("state fidelity", fid, 1.0, "oracle_overlap")
            or self._near("success_prob", float(f["success_prob"]), prob, "success_probability")
            or self._near("var_x", float(f["var_x"]), var_x, "moments_vs_matrix")
            or self._near("var_p", float(f["var_p"]), var_p, "moments_vs_matrix")
        )

    def _optimize(self, n, m, rows) -> str | None:
        _, _, min_var, a2, R, _ = rows[0]
        psi, _ = self._brute(n, m, float(a2), float(R))
        var_x, _ = self._variances(psi.amps)
        return self._near("min_var", float(min_var), var_x, "optimizer_variance")

    def _wigner(self, n, m, a2, R, rows) -> str | None:
        np, fock = self.np, self.fock
        psi, _ = self._brute(n, m, a2, R)
        values = [abs(float(r[2])) for r in rows]
        peak = max(values)
        support = [i for i, v in enumerate(values) if v >= SUPPORT_FRACTION * peak]
        for i in [values.index(peak)] + self.rng.sample(support, WIGNER_SAMPLES):
            x, p, w = (float(v) for v in rows[i])
            # wigner_oracle pads rho only to Truncation.auto(beta), too small for
            # D(beta) on the upper levels of rho: at |alpha|^2 = 1.95 it is off by
            # 2e-7.  Zero-padding rho first is exact and gives D(beta) room.
            dim = fock.Truncation.auto(abs(complex(x, p)) + math.sqrt(psi.amps.size)).dim
            amps = np.zeros(dim, dtype=complex)
            amps[: psi.amps.size] = psi.amps
            ref = self.nongauss.wigner_oracle(fock.DensityMatrix(np.outer(amps, amps.conj())), complex(x, p))
            bad = self._near(f"W({x}, {p})", w, ref, "wigner_pointwise")
            if bad:
                return bad
        return None

    def _fidelity_map(self, n, m, a2, R, rows) -> str | None:
        cfg = self.dq.CMConfig(n, m, complex(math.sqrt(a2)), R)
        t = self.fock.Truncation.auto(cfg.alpha, n, m)
        for i in self.rng.sample(range(len(rows)), FIDELITY_SAMPLES):
            ed, es, fid = (float(v) for v in rows[i])
            imp = self.imperfections.ImperfectionParams(ed, es)
            try:
                ref = self.imperfections.realized_fidelity(cfg, imp, t)
            except self.ZeroProbability:
                ref = 0.0  # the herald never fires; fidelity-map documents 0 here
            bad = self._near(f"fidelity({ed}, {es})", fid, ref, "oracle_overlap")
            if bad:
                return bad
        return None
