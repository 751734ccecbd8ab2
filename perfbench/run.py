"""Benchmark of the dqsim CLI runs that rebuild the paper's results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a dqsim source tree; it needs nothing installed
beyond numpy and scipy, and puts ``src`` on PYTHONPATH for the commands.
NAME is one of the workloads below, or ``all`` to run each in turn.

  tables     table1, table2 and table3 with default arguments
  maps       hsd-scan --n 2 --m 1 and scan --n 1 --m 0 with their default grids
  cli-calls  4 configurations drawn from the seed (n in 1..4, m in 0..4,
             |alpha|^2 in [0.5, 16], R in [0.1, 0.9]), each run through
             state --format json, wigner, fidelity-map, optimize

BENCHMARK.json says why each workload was chosen; LAYERS.md says which
layer metric should move which end-to-end metric on which workload.  Every
command runs in a fresh interpreter through launch.py, one at a time, from
this process: a closed loop with one client.  A run first starts one
untimed process that only imports dqsim.cli and builds its parser (it
compiles byte code and fills the page cache), then repeats the workload
until S seconds have passed, at least once.  Outputs are checked after the
timed region (checks.py).

With --trace 0 the metrics are the end-to-end ones:
  wall_s       median wall seconds of one pass over the workload
  setup_s      median seconds to import dqsim.cli and build its parser,
               measured from the spawn, over every workload command of
               the run
  peak_rss_mb  largest resident memory of any process of the run, as the
               process itself reports it before exiting
With --trace 1 the run makes one untraced and one traced pass and reports
the per-layer metrics of spans.py for the traced one, with the tracing
overhead as traced minus untraced wall seconds.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  attempted counts workload commands;
failed counts those that exit non-zero (or run past CALL_TIMEOUT_S) or
whose output fails its check; correct is false when any command fails.
failed_ratio and the
per-command latencies are in the summary above that line and in the full
result, which also records the environment and goes to
perfbench/out/<workload>/.  compare.py reports and compares those files.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "launch.py"
OUT = HERE / "out"

CALL_TIMEOUT_S = 170
MODULES = ("cli", "polynomials", "dq", "squeezing", "nongauss", "fock", "imperfections")
P95_MIN_SAMPLES = 200  # ten samples beyond the 95th percentile


def workload_commands(name: str, seed: int) -> list[list[str]]:
    if name == "tables":
        return [["table1"], ["table2"], ["table3"]]
    if name == "maps":
        return [["hsd-scan", "--n", "2", "--m", "1"], ["scan", "--n", "1", "--m", "0"]]
    if name == "cli-calls":
        rng = random.Random(seed)
        commands = []
        for _ in range(4):
            n, m = str(rng.randint(1, 4)), str(rng.randint(0, 4))
            a2, R = f"{rng.uniform(0.5, 16.0):.4f}", f"{rng.uniform(0.1, 0.9):.4f}"
            config = ["--n", n, "--m", m, "--alpha-sq", a2, "--R", R]
            # the CSV form of state exits 1 (cli._fmt calls float() on the
            # field names), so the configuration's report is read as JSON
            commands += [
                ["state", *config, "--format", "json"],
                ["wigner", *config],
                ["fidelity-map", *config],
                ["optimize", "--n", n, "--m", m],
            ]
        return commands
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("tables", "maps", "cli-calls")


@dataclass
class Call:
    argv: list[str]
    returncode: int
    stdout: str
    stderr: str
    latency_s: float
    setup_s: float | None
    maxrss_kb: int
    trace: dict | None = None
    problem: str | None = None


class Launcher:
    """Starts launch.py processes one at a time and collects their records."""

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp
        path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.started = 0

    def call(self, argv: list[str], *flags: str) -> Call:
        self.started += 1
        record = self.tmp / f"{self.started}.json"
        cmd = [sys.executable, str(LAUNCH), str(record), *flags, "--", *argv]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, encoding="utf-8",
                timeout=CALL_TIMEOUT_S,
            )
            returncode, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:  # the child is killed and reaped
            returncode, stdout, stderr = -1, "", f"timed out after {CALL_TIMEOUT_S} s"
        latency = time.monotonic() - t0
        rec = json.loads(record.read_text()) if record.exists() else {}
        setup = rec["imported"] - t0 + rec["parser_s"] if "parser_s" in rec else None
        return Call(
            argv, returncode, stdout, stderr, latency, setup,
            rec.get("maxrss_kb", 0), rec.get("trace"),
        )

    def one_pass(self, commands: list[list[str]], *flags: str) -> tuple[float, list[Call]]:
        t0 = time.monotonic()
        calls = [self.call(argv, *flags) for argv in commands]
        return time.monotonic() - t0, calls


# ---------------------------------------------------------------------------
# checks and environment


def check_calls(workload: str, calls: list[Call], seed: int) -> None:
    """Set ``problem`` on every call that exited non-zero or whose output is off."""
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    from dqsim.cli import TOLERANCES

    oracles = checks.Oracles(seed) if workload == "cli-calls" else None
    done: dict = {}
    for c in calls:
        if c.returncode != 0:
            last = c.stderr.strip().splitlines()[-1:] or [""]
            c.problem = f"exit {c.returncode}: {last[0]}"
            continue
        key = (tuple(c.argv), c.stdout)
        if key not in done:
            if oracles is not None:
                done[key] = oracles.check(c.argv, c.stdout)
            else:
                done[key] = checks.check_reference(c.argv, c.stdout, TOLERANCES)
        c.problem = done[key] and "output: " + done[key]


def git_sha() -> str:
    # the ceiling keeps git from taking the sha of a repository above ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown (no git)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    from importlib.metadata import version

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {v: os.environ.get(v, "unset") for v in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "git_sha": git_sha(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(calls: list[Call]) -> dict[str, float]:
    """Per-layer figures from the traced calls' span aggregates and counters."""
    calls_n: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    for c in calls:
        if not c.trace:
            continue
        for name, _parent, n, tot, own in c.trace["agg"]:
            calls_n[name] = calls_n.get(name, 0) + n
            total[name] = total.get(name, 0.0) + tot
            self_s[name] = self_s.get(name, 0.0) + own
        for key, v in c.trace["counts"].items():
            counts[key] = counts.get(key, 0) + v
    out: dict[str, float] = {}
    for name in calls_n:
        n = calls_n[name]
        out[f"{name}.calls"] = n
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.us_per_call"] = total[name] / n * 1e6
        out[f"{name}.useful_ratio"] = counts.get(f"{name}.useful", 0) / n
        out[f"{name}.repeat_ratio"] = counts.get(f"{name}.repeats", 0) / n
    for key, v in counts.items():
        out.setdefault(key, v)
    for mod in MODULES:
        out[f"{mod}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(mod + "."))
    out["startup.self_s"] = sum(c.setup_s or 0.0 for c in calls)
    return out


def command_stats(runs: list[dict]) -> tuple[int, int, float | None]:
    """Failed and attempted commands over result dicts, and the pooled 95th-percentile
    latency, or None where fewer than P95_MIN_SAMPLES calls give it."""
    latencies = [c["latency_s"] for r in runs for c in r["calls"]]
    p95 = statistics.quantiles(latencies, n=20)[-1] if len(latencies) >= P95_MIN_SAMPLES else None
    return sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs), p95


def summarize(workload: str, seed: int, trace: bool, passes, bench: dict) -> dict:
    calls = [c for _, cs in passes for c in cs]
    failed = [c for c in calls if c.problem]
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "when": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "environment": environment(seed),
        "attempted": len(calls),
        "failed": len(failed),
        "correct": not failed,
        "failures": [{"argv": c.argv, "problem": c.problem} for c in failed],
        "pass_wall_s": [w for w, _ in passes],
        "calls": [
            {"argv": c.argv, "returncode": c.returncode, "latency_s": c.latency_s,
             "setup_s": c.setup_s, "maxrss_kb": c.maxrss_kb}
            for c in calls
        ],
    }
    metrics: dict[str, float] = {}
    if trace:
        (wall0, _), (wall1, traced) = passes
        metrics = layer_metrics(traced)
        metrics["trace.wall_s"] = wall1
        metrics["trace.overhead_s"] = wall1 - wall0
        wanted = bench["per_layer"]
    else:
        # no setups only when no command got through start-up: then correct is false
        setups = [c.setup_s for c in calls if c.setup_s is not None] or [0.0]
        metrics = {
            "wall_s": statistics.median(w for w, _ in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(c.maxrss_kb for c in calls) / 1024.0,
        }
        wanted = bench["end_to_end"]
    result["all_metrics"] = metrics
    # a layer the workload never calls reads 0
    result["metrics"] = {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                         for m in wanted}
    return result


def print_summary(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    env = result["environment"]
    print("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    latencies = [c["latency_s"] for c in result["calls"]]
    failed, n, p95 = command_stats([result])
    print(f"  {'failed_ratio':48s} {failed / n:14.6g} ratio  ({failed}/{n})")
    if p95 is not None:
        print(f"  {'call_p95_s':48s} {p95:14.6g} s  ({n} samples)")
    else:
        print(f"  {'call_p95_s':48s} {'not reported':>14s}    ({n} samples, needs {P95_MIN_SAMPLES})")
    print(f"  {'call_median_s':48s} {statistics.median(latencies):14.6g} s  ({n} samples)")
    for f in result["failures"]:
        print(f"  FAILED {' '.join(f['argv'])}: {f['problem']}")
    if result["trace"]:
        m = result["all_metrics"]
        shares = {k: m[f"{k}.self_s"] for k in MODULES + ("startup",)}
        whole = m["trace.wall_s"]
        print("  traced time by layer (self seconds, share of the traced pass):")
        for k, v in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"    {k:16s} {v:10.3f} s  {v / whole:7.1%}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, bench: dict) -> dict:
    commands = workload_commands(workload, seed)
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        launcher = Launcher(tmp)
        launcher.call([], "--probe")
        if trace:
            passes = [launcher.one_pass(commands), launcher.one_pass(commands, "--trace")]
        else:
            passes = []
            start = time.monotonic()
            while not passes or time.monotonic() - start < seconds:
                passes.append(launcher.one_pass(commands))
    finally:
        shutil.rmtree(tmp)
    check_calls(workload, [c for _, cs in passes for c in cs], seed)
    result = summarize(workload, seed, trace, passes, bench)
    dest = OUT / workload
    dest.mkdir(exist_ok=True)
    stem = f"seed{seed}-trace{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    (dest / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if trace:
        spans = [[i, *s] for i, c in enumerate(passes[1][1]) for s in c.trace["spans"]]
        (dest / f"{stem}.spans.json").write_text(json.dumps(
            {"columns": ["process", "id", "name", "start", "end", "parent"], "spans": spans}))
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "dqsim" / "cli.py").is_file():
        print(f"run.py: no dqsim source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), bench)
        print_summary(result)
        results.append(result)
    if len(results) == 1:
        line = {k: results[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        line = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
