"""One benchmark process: import splitspin, build one round of jobs, run
them in a closed loop with one client, and check every output.

    python3 perfbench/worker.py --workload verify_q --seed 1 --round 0 --trace 0

The worker writes ``READY`` to stdout once set-up (interpreter start,
``import splitspin``, input generation) is done and the first job is about
to start, then one JSON line with the per-job times, the host-kernel times
that bracket each job (see ``host_kernel``), the failure count and the peak
RSS.  With ``--trace 1`` it wraps the program's functions first (see
tracer.py), adds the per-layer metrics and writes the spans to
``--trace-out``.  run.py starts it; it is not meant to be run on its own.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import splitspin  # noqa: E402  (the checkout's own source, see SRC)
from splitspin import cli  # noqa: E402

from oracles import CheckFailed, check_job  # noqa: E402
from workloads import jobs  # noqa: E402


def host_kernel() -> float:
    """Seconds the host now takes for a fixed pure-Python kernel: the mean
    of 15 passes (about 0.7 ms each) of Fraction sums and int residue
    arithmetic, the two kinds of work splitspin's jobs are made of.  No
    splitspin code runs in it, so a change to the program leaves it alone;
    its time tracks only how fast the shared host runs this process at the
    moment.  On a shared 2-vCPU host that speed moves by 20-40% within
    seconds, and every job slows down with it."""
    passes = []
    for _ in range(15):
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 120):
            acc += Fraction(1, i)
        x = 1
        for i in range(3000):
            x = (x * 7 + i) % 10007
        passes.append(time.perf_counter() - start)
    return statistics.fmean(passes)


def run_job(job):
    """One call of the program's entry point; returns (exit code, output)."""
    if job.kind == "rho_order":
        # looked up on the package at call time, so the traced run sees it
        field = splitspin.Field.prime(job.params["p"])
        return 0, splitspin.rho_order(field, field.scalar(job.params["mu"]))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(job.argv))
    return code, buf.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    if not os.path.abspath(splitspin.__file__).startswith(SRC + os.sep):
        print(f"splitspin was imported from {splitspin.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    job_list = jobs(args.workload, args.seed, args.round)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    print("READY", flush=True)
    times, failed, wrong, errors = [], 0, 0, []
    kernel = [host_kernel()]  # kernel[i] and kernel[i + 1] bracket job i
    for index, job in enumerate(job_list):
        if tracer is not None:
            tracer.job = index
        start = time.perf_counter()
        try:
            code, output = run_job(job)
        except (Exception, SystemExit) as exc:  # a failed job is counted, not fatal
            traceback.print_exc()
            code, output = repr(exc), None
        times.append(time.perf_counter() - start)
        kernel.append(host_kernel())
        if code != 0:
            failed += 1
            errors.append(f"{job.argv or job.params}: exit {code}")
            continue
        try:
            check_job(job.params, output)
        except (CheckFailed, KeyError, TypeError, ValueError) as exc:
            wrong += 1
            errors.append(f"{job.argv or job.params}: {exc!r}")

    result = {
        "times": times,
        "shapes": [job.shape for job in job_list],
        "kernel": kernel,
        "failed": failed,
        "wrong": wrong,
        "errors": errors[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        if args.trace_out:
            tracer.write(args.trace_out, args.workload, args.seed, args.round)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
