"""Span tracer installed into dqsim from outside the package.

`install()` replaces each traced function, under every name a caller looks
it up by, with a wrapper that records a span (name, start, end, parent).
Names follow ``<module>.<function>``; a foreign function such as scipy's
``minimize`` is traced where a dqsim module binds it, so ``squeezing`` and
``nongauss`` each get their own ``minimize`` span.

Every call is aggregated per (name, parent) as calls, total and self
seconds, where self time is a span's duration minus the time its child
spans cover.  Raw spans are kept in memory up to `SPAN_CAP` per name, since
``squeezing.variance_of_coeffs`` alone runs about a million times in
``table2``; `Tracer.report()` hands both to the caller to write out.
"""

from __future__ import annotations

import sys
import time

SPAN_CAP = 1000

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open frames: [name, span id, child seconds]
        self.agg: dict[tuple[str, str | None], list] = {}  # -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.kept: dict[str, int] = {}
        self.seen: dict[str, set] = {}
        self.best: dict[int, float] = {}  # best optimizer value per parent span id
        self.next_id = 1

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def repeat(self, name: str, key) -> None:
        """Count a call whose arguments repeat an earlier call's (a cache could serve it)."""
        seen = self.seen.setdefault(name, set())
        if key in seen:
            self.count(name + ".repeats")
        seen.add(key)

    def wrap(self, name: str, fn, after=None):
        stack = self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, self.next_id, 0.0]
            self.next_id += 1
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                self._close(frame, parent, t0, t1)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def _close(self, frame: list, parent: list | None, t0: float, t1: float) -> None:
        name, span_id, child_s = frame
        dur = t1 - t0
        if parent is not None:
            parent[2] += dur
        key = (name, parent[0] if parent is not None else None)
        a = self.agg.get(key)
        if a is None:
            a = self.agg[key] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += dur
        a[2] += dur - child_s
        kept = self.kept.get(name, 0)
        if kept < SPAN_CAP:
            self.kept[name] = kept + 1
            self.spans.append((span_id, name, t0, t1, parent[1] if parent is not None else 0))

    def report(self) -> dict:
        return {
            "agg": [[n, p, c, t, s] for (n, p), (c, t, s) in self.agg.items()],
            "counts": self.counts,
            "spans": self.spans,
        }


# ---------------------------------------------------------------------------
# what is traced, and the counters recorded on return


def _cells_first_axis_dropped(tr, args, kwargs, result):
    tr.count("dq.coefficients_grid.cells", result[0].size)


def _size_counter(key):
    def after(tr, args, kwargs, result):
        tr.count(key, getattr(result, "size", 1))

    return after


def _rows_counter(key):
    def after(tr, args, kwargs, result):
        tr.count(key, len(result))

    return after


def _displacement_repeat(tr, args, kwargs, result):
    beta, t = args if len(args) == 2 else (args[0], kwargs["t"])
    tr.repeat("fock.displacement_matrix", (complex(beta), t.dim))


def _bs_repeat(tr, args, kwargs, result):
    tr.repeat("fock.bs", (float(args[0]), args[1]))


TARGETS = [
    # (module, attribute, span name, counter run on return)
    ("cli", "main", "cli.main", None),
    ("cli", "build_parser", "cli.build_parser", None),
    ("polynomials", "hermite2", "polynomials.hermite2", None),
    ("dq", "coefficients_grid", "dq.coefficients_grid", _cells_first_axis_dropped),
    ("squeezing", "optimize_fock_superposition", "squeezing.optimize_fock_superposition", None),
    ("squeezing", "optimize_cm_squeezing", "squeezing.optimize_cm_squeezing", None),
    ("squeezing", "variance_of_coeffs", "squeezing.variance_of_coeffs", None),
    ("squeezing", "variance_x_map", "squeezing.variance_x_map",
     _size_counter("squeezing.variance_x_map.cells")),
    ("nongauss", "hsd_scan", "nongauss.hsd_scan", _size_counter("nongauss.hsd_scan.cells")),
    ("nongauss", "hsd_of_coeffs", "nongauss.hsd_of_coeffs", None),
    ("nongauss", "wigner_closed", "nongauss.wigner_closed",
     _size_counter("nongauss.wigner_closed.points")),
    ("nongauss", "wigner_negativity", "nongauss.wigner_negativity", None),
    ("fock", "coherent", "fock.coherent", None),
    ("fock", "brute_force_cm", "fock.brute_force_cm", None),
    ("fock", "displacement_matrix", "fock.displacement_matrix", _displacement_repeat),
    ("fock", "_bs_blocks", "fock.bs", _bs_repeat),
    ("imperfections", "realized_state", "imperfections.realized_state", None),
    ("imperfections", "fidelity_heatmap", "imperfections.fidelity_heatmap",
     _rows_counter("imperfections.fidelity_heatmap.cells")),
]

# Foreign functions, traced only where the named dqsim module binds them.
BOUND = [
    ("squeezing", "minimize"),
    ("nongauss", "minimize"),
    ("fock", "expm"),
    ("nongauss", "expm"),
]


def _minimize_wrapper(tracer: Tracer, name: str, fn, tol: float):
    """Trace an optimizer run and count it useful when it lowers the best value
    reached so far in its parent span (or, for the first run there, its own
    starting value) by more than ``tol``."""
    inner = tracer.wrap(name, fn)

    def traced(fun, x0, *args, **kwargs):
        start = []

        def objective(x, *a):
            v = fun(x, *a)
            if not start:
                start.append(float(v))
            return v

        parent = tracer.stack[-1] if tracer.stack else None
        res = inner(objective, x0, *args, **kwargs)
        key = parent[1] if parent is not None else 0
        before = min(tracer.best.get(key, float("inf")), start[0] if start else float("inf"))
        value = float(res.fun)
        tracer.count(name + ".nfev", int(res.nfev))
        if value < before - tol:
            tracer.count(name + ".useful")
        tracer.best[key] = min(before, value)
        return res

    return traced


def install() -> Tracer:
    """Wrap every target in the already imported dqsim modules."""
    tracer = Tracer()
    dqsim_modules = [m for k, m in sys.modules.items() if k == "dqsim" or k.startswith("dqsim.")]
    for mod_name, attr, span, after in TARGETS:
        orig = getattr(sys.modules["dqsim." + mod_name], attr)
        traced = tracer.wrap(span, orig, after)
        for mod in dqsim_modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, traced)
    tol = sys.modules["dqsim.cli"].TOLERANCES["optimizer_variance"]
    for mod_name, attr in BOUND:
        mod = sys.modules["dqsim." + mod_name]
        orig = getattr(mod, attr)
        span = f"{mod_name}.{attr}"
        if attr == "minimize":
            setattr(mod, attr, _minimize_wrapper(tracer, span, orig, tol))
        else:
            setattr(mod, attr, tracer.wrap(span, orig))
    return tracer
