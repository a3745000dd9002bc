"""The repository benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload paper_quiet --seed 1 --seconds 60 --trace 0

Runs iterations of one workload, each in a fresh process (``iteration.py``),
one after another, until the next one would end past ``--seconds``.  With
``--trace 0`` it prints the end-to-end metrics (medians over iterations);
with ``--trace 1`` it alternates untraced and traced iterations and prints
the per-layer metrics of the traced ones, with the tracing overhead.  Every
metric is printed by name with its unit, then the last line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Seed 1 (the default) is checked against the pinned digests and event
counts; any other seed records them in ``.perfbench-out/runs/`` so two
commits can be compared on a held-out seed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

#: Untraced iterations per run, at least: two, so determinism is checked.
MIN_ITERATIONS = 2

#: Whole-run wall budget in seconds; iterations stop before it regardless
#: of ``--seconds``.
HARD_LIMIT_S = 165.0


class BenchError(RuntimeError):
    """An iteration crashed or printed no record: no result is reported."""


def run_iteration(workload: str, seed: int, trace: int, timeout: float) -> Dict[str, object]:
    command = [
        sys.executable, str(HERE / "iteration.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--out-dir", str(OUT_DIR),
    ]
    # String hashing is salted per process unless fixed; the salt moves dict
    # layouts and with them the timing of small operations (the read-backs
    # by about +-15% from process to process).  Results do not depend on it.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            command, cwd=str(ROOT), env=env, capture_output=True, text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("%s iteration (trace %d) exceeded %.0f s" % (workload, trace, timeout))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(
            "%s iteration (trace %d) exited %d:\n%s"
            % (workload, trace, done.returncode, done.stderr[-4000:])
        )
    return json.loads(lines[-1])


def median(values: List[float]) -> float:
    return statistics.median(values)


def end_to_end(records: List[Dict[str, object]]) -> Dict[str, float]:
    return {
        "setup_s": median([r["setup_s"] for r in records]),
        "run_s": median([r["run_s"] for r in records]),
        "events_per_s": median([r["events"] / r["run_s"] for r in records]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in records]),
    }


def per_layer(plain: List[Dict[str, object]], traced: List[Dict[str, object]]) -> Dict[str, float]:
    metrics = {
        name: median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]
    }
    traced_run = median([r["run_s"] for r in traced])
    plain_run = median([r["run_s"] for r in plain])
    metrics["trace.run_s_traced"] = traced_run
    metrics["trace.run_s_untraced"] = plain_run
    metrics["trace.overhead_ratio"] = traced_run / plain_run
    return metrics


def declared_metrics(trace: int) -> Dict[str, str]:
    """name -> unit from BENCHMARK.json for this kind of run ({} when absent)."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return {}
    spec = json.loads(path.read_text())
    return {entry["name"]: entry["unit"] for entry in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true", help="print the metric catalog as Markdown")
    args = parser.parse_args()
    if args.describe:
        from catalog import describe

        print(describe())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "benchmarks" / "bench_baseline.json").is_file():
        print("perfbench: run from a checkout with src/repro and benchmarks/", file=sys.stderr)
        return 2
    from catalog import UNITS

    # Turn SIGTERM into SystemExit, so that subprocess.run kills and reaps
    # the running iteration before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    plain: List[Dict[str, object]] = []
    traced: List[Dict[str, object]] = []
    walls: List[float] = []
    started = time.perf_counter()
    try:
        while True:
            begun = time.perf_counter()
            plain.append(run_iteration(args.workload, args.seed, 0, HARD_LIMIT_S - (begun - started)))
            if args.trace:
                traced.append(run_iteration(
                    args.workload, args.seed, 1, HARD_LIMIT_S - (time.perf_counter() - started)))
            walls.append(time.perf_counter() - begun)
            elapsed = time.perf_counter() - started
            enough = args.trace or len(plain) >= MIN_ITERATIONS
            if enough and elapsed + median(walls) > min(args.seconds, HARD_LIMIT_S):
                break
    except BenchError as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT_DIR / "work", ignore_errors=True)

    records = plain + traced
    reference = plain[0]
    attempted = sum(r["attempted"] for r in records)
    failed = 0
    for record in records:
        agrees = record["digest"] == reference["digest"] and record["events"] == reference["events"]
        failed += record["failed"] if agrees else record["attempted"]
    checks = {
        "deterministic": len({(r["digest"], r["events"]) for r in records}) == 1,
        "iteration_checks": all(all(r["checks"].values()) for r in records),
    }
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    declared = declared_metrics(args.trace)
    checks["metrics_match_benchmark_json"] = declared == {name: UNITS[name] for name in metrics}
    correct = all(checks.values()) and failed == 0

    print("perfbench %s seed=%d trace=%d iterations=%d+%d wall=%.1f s" % (
        args.workload, args.seed, args.trace, len(plain), len(traced), time.perf_counter() - started))
    for record in records:
        host = record["host"]
        print("  iteration traced=%d nproc=%s python=%s loadavg_1m=%.2f gc_collections=%s run_s=%.4f" % (
            record["traced"], host["nproc"], host["python"], host["loadavg_1m"],
            host["gc_collections"], record["run_s"]))
    print("  digest=%s events=%d %s" % (
        reference["digest"], reference["events"],
        "pinned" if args.seed == DEFAULT_SEED else "recorded (held-out seed)"))
    for name, check in sorted(checks.items()):
        print("  check %s: %s" % (name, "ok" if check else "FAILED"))
    for record in records:
        for name, check in sorted(record["checks"].items()):
            if not check:
                print("  iteration check %s: FAILED" % name)
    for name, value in metrics.items():
        print("  %-40s %.6g %s" % (name, value, UNITS[name]))
    print("  %-40s %.6g ratio (%d failed of %d attempted)" % (
        "failed_frac", failed / attempted, failed, attempted))
    reports = [r["report_s"] for r in plain if r["report_s"] is not None]
    report_s = median(reports) if reports else None
    if reports:
        print("  %-40s %.6g s (median of %d iterations; not a BENCHMARK.json metric)" % (
            "report_s", report_s, len(reports)))

    runs_dir = OUT_DIR / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "digest": reference["digest"], "events": reference["events"],
        "checks": checks, "metrics": metrics, "report_s": report_s,
        "failed": failed, "attempted": attempted, "iterations": records,
    }
    (runs_dir / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(summary, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
