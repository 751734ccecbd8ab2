"""Report benchmark results, and compare them with an earlier set.

    python3 perfbench/compare.py [RESULTS ...] [--base EARLIER ...]

RESULTS and EARLIER are result files written by run.py, or directories
searched for them; RESULTS defaults to perfbench/out.  For every workload
it prints each end-to-end metric of BENCHMARK.json by name and unit as the
median over the untraced runs, with quartiles and the spread
(q3 - q1) / median, plus:

  failed_ratio  failed commands over attempted ones, over all runs
  call_p95_s    95th-percentile command latency over the pooled runs,
                reported only where ten samples lie beyond it (200 calls)

With --base it adds the earlier median (the base of the ratio), the
ratio median / base and a verdict: "unresolved" when either side's spread
is wider than the metric's bound, otherwise "worse" when the median is
worse than the base by more than the bound, else "within bound".
Traced runs add the per-layer medians and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

from run import P95_MIN_SAMPLES, command_stats

HERE = Path(__file__).resolve().parent


def load(paths: list[str]) -> dict[tuple[str, int], list[dict]]:
    runs: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for p in map(Path, paths):
        files = sorted(p.rglob("*.json")) if p.is_dir() else [p]
        for f in files:
            if f.name.endswith(".spans.json"):
                continue
            r = json.loads(f.read_text())
            if "workload" in r:
                runs[(r["workload"], r["trace"])].append(r)
    return runs


def stats(values: list[float]) -> tuple[float, float, float, float | None]:
    """Median, first and third quartile, and spread as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def verdict(metric: dict, new: tuple, base: tuple) -> str:
    bound = metric["bound"]
    if any(s is None or s > bound for s in (new[3], base[3])):
        return "unresolved"
    change = (new[0] - base[0]) / abs(base[0])
    worse = change > bound if metric["better"] == "lower" else change < -bound
    return "worse" if worse else "within bound"


def pct(x: float | None) -> str:
    return "n/a" if x is None else f"{x:.1%}"


def report(runs, base_runs, bench: dict) -> None:
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    for workload in dict.fromkeys(w for w, _ in list(runs) + list(base_runs)):
        plain, traced = runs.get((workload, 0), []), runs.get((workload, 1), [])
        base_plain = base_runs.get((workload, 0), [])
        seeds = sorted({r["seed"] for r in plain})
        print(f"{workload}: {len(plain)} untraced runs (seeds {seeds}), {len(traced)} traced"
              + (f"; base {len(base_plain)} untraced runs" if base_runs else ""))
        if plain:
            env = plain[-1]["environment"]
            print("  env: " + ", ".join(f"{k}={v}" for k, v in env.items() if k != "seed"))
        head = f"  {'metric':14s} {'unit':6s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s} {'bound':>6s}"
        print(head + ("  | {:>11s} {:>7s}  verdict".format("base", "ratio") if base_runs else ""))
        for name, m in metrics.items():
            vals = [r["metrics"][name]["value"] for r in plain if name in r["metrics"]]
            if not vals:
                continue
            s = stats(vals)
            line = (f"  {name:14s} {m['unit']:6s} {s[0]:11.5g} {s[1]:11.5g} {s[2]:11.5g}"
                    f" {pct(s[3]):>7s} {m['bound']:6.0%}")
            bvals = [r["metrics"][name]["value"] for r in base_plain if name in r["metrics"]]
            if bvals:
                b = stats(bvals)
                line += f"  | {b[0]:11.5g} {s[0] / b[0]:7.4f}  {verdict(m, s, b)}"
            print(line)
        for label, group in (("", plain), ("base ", base_plain)):
            if not group:
                continue
            failed, attempted, p95 = command_stats(group)
            print(f"  {label + 'failed_ratio':14s} {'ratio':6s} {failed / attempted:11.5g}"
                  f"  ({failed}/{attempted})")
            if p95 is not None:
                print(f"  {label + 'call_p95_s':14s} {'s':6s} {p95:11.5g}  ({attempted} calls)")
            else:
                print(f"  {label + 'call_p95_s':14s} {'s':6s} {'not reported':>11s}"
                      f"  ({attempted} calls, needs {P95_MIN_SAMPLES})")
        if traced:
            base_traced = base_runs.get((workload, 1), [])
            print(f"  per layer, median over {len(traced)} traced runs"
                  + (f" (base: {len(base_traced)})" if base_traced else ""))
            for m in bench["per_layer"]:
                name = m["name"]
                v = statistics.median(r["metrics"][name]["value"] for r in traced)
                line = f"    {name:48s} {v:13.6g} {m['unit']}"
                if base_traced:
                    b = statistics.median(r["metrics"][name]["value"] for r in base_traced)
                    line += f"  | base {b:13.6g}  ratio " + (f"{v / b:.4f}" if b else "n/a")
                print(line)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("results", nargs="*", default=[str(HERE / "out")])
    ap.add_argument("--base", nargs="*", default=[])
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    report(load(args.results), load(args.base), bench)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
