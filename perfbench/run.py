#!/usr/bin/env python3
"""The splitspin benchmark.

    python3 perfbench/run.py --workload verify_q --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout and uses the checkout's own ``src/``.  A
run is whole rounds of the same seeded jobs, as many as fit in
``--seconds`` but at least enough for a 90th percentile; each round runs in
a fresh single-threaded worker process (worker.py) as a closed loop with
one client.  Every job's output is checked by oracles.py.  Job times are
reported scaled by the host's speed at the time of the job, which a fixed
kernel measures between jobs (see ``normalised_times``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs round 0
twice, untraced and then traced (tracer.py), and prints the per-layer
metrics and the tracing overhead.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Results and
traces also go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

from tracer import METRIC_UNITS  # noqa: E402
from workloads import ROUND_JOBS, WORKLOADS  # noqa: E402

# The host kernel's time (worker.host_kernel) on the reference host; job
# times are reported scaled to a host that runs the kernel this fast.
KERNEL_REF_S = 0.0006
P90_MIN_JOBS = 100  # at least ten samples beyond the 90th percentile
RUN_TIMEOUT_S = 170  # the whole run, so it ends within 180 s even if a job hangs


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, round_no: int, trace: int, deadline: float) -> tuple[float, dict]:
    """Start one worker; return (set-up seconds, its result)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--round", str(round_no), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", os.path.join(RESULTS, f"trace-{workload}")]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        code = proc.returncode
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {workload} round {round_no} ran past the deadline") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0 or not rest.strip():
        raise BenchError(f"worker for {workload} round {round_no} exited with {code}")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def normalised_times(result: dict) -> list[float]:
    """Each job's time scaled to a host on which the worker's host kernel
    takes KERNEL_REF_S: t * KERNEL_REF_S / (mean of the kernel passes just
    before and just after the job)."""
    kernel = result["kernel"]
    return [t * 2 * KERNEL_REF_S / (kernel[i] + kernel[i + 1]) for i, t in enumerate(result["times"])]


def job_stats(times: list[float], prefix: str) -> dict:
    stats = {
        f"{prefix}jobs_per_s": (len(times) / sum(times), "jobs/s"),
        f"{prefix}job_p50_ms": (statistics.median(times) * 1000, "ms"),
    }
    if len(times) >= P90_MIN_JOBS:
        stats[f"{prefix}job_p90_ms"] = (statistics.quantiles(times, n=10)[-1] * 1000, "ms")
    return stats


def end_to_end(results: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """(the metrics, the same job figures unscaled by host speed)."""
    metrics = job_stats([t for result in results for t in normalised_times(result)], "norm_")
    metrics["setup_s"] = (statistics.median(setups), "s")
    metrics["peak_rss_mb"] = (max(result["peak_rss_mb"] for result in results), "MB")
    raw = job_stats([t for result in results for t in result["times"]], "raw_")
    kernel = [k for result in results for k in result["kernel"]]
    raw["host_kernel_ms"] = (statistics.median(kernel) * 1000, "ms")
    return metrics, raw


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "splitspin", "__init__.py")):
        print(f"no splitspin source under {ROOT}/src: run from the root of a checkout",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_TIMEOUT_S
    if args.trace:
        # the untraced pass of the same round is the base of the overhead
        _, plain = run_worker(args.workload, args.seed, 0, 0, deadline)
        _, traced = run_worker(args.workload, args.seed, 0, 1, deadline)
        results = [plain, traced]
        # scaled times, so that a change in host speed between the two
        # passes does not show as overhead
        plain_s, traced_s = sum(normalised_times(plain)), sum(normalised_times(traced))
        overhead = traced_s / plain_s - 1
        print(f"tracing overhead on {args.workload}: {100 * overhead:.1f}% "
              f"({plain_s:.3f} s untraced, {traced_s:.3f} s traced, scaled)")
        metrics = {name: (value, METRIC_UNITS[name]) for name, value in traced["layers"].items()}
    else:
        # Every round holds the same jobs, so the number of rounds changes
        # only how many copies of them are timed, not which jobs they are.
        min_rounds = -(-P90_MIN_JOBS // ROUND_JOBS[args.workload])
        setups, results = [], []
        start = time.perf_counter()
        while True:
            setup_s, result = run_worker(args.workload, args.seed, len(results), 0, deadline)
            setups.append(setup_s)
            results.append(result)
            per_round = (time.perf_counter() - start) / len(results)
            if len(results) >= min_rounds and (len(results) + 1) * per_round > args.seconds:
                break
        metrics, raw = end_to_end(results, setups)
        for name, (value, unit) in raw.items():
            print(f"{args.workload:10} {name:30} {value:14.6f} {unit}  (not a metric: unscaled)")

    attempted = sum(len(result["times"]) for result in results)
    failed = sum(result["failed"] for result in results)
    wrong = sum(result["wrong"] for result in results)
    for result in results:
        for error in result["errors"]:
            print(f"job error: {error}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10} {name:30} {value:14.6f} {unit}")
    print(f"{args.workload:10} attempted {attempted}, failed {failed}, wrong outputs {wrong}")
    summary = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({**summary, "seed": args.seed, "seconds": args.seconds,
                   "times": [r["times"] for r in results],
                   "shapes": [r["shapes"] for r in results],
                   "kernel": [r["kernel"] for r in results]}, handle)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
