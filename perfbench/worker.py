"""One workload in one process: set-up, timed passes, checks, metrics.

Started by ``run.py``; prints one JSON object as its last stdout line.
Set-up runs from process start to the first timed op: importing the
package, making the inputs from the seed, and one warm-up op. With
``--setup-only`` the worker stops there and reports only its set-up time.

With ``--trace 1`` untraced and traced passes alternate. The ratio of
their median pass times is the tracing overhead, and both kinds of pass
must produce the same output fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Passes of a run alternate between a steady speed and bursts up to 1.5x
# faster; the 90th percentile over passes tracks the steady speed, where the
# median moves with the share of bursts in the run.
PASS_QUANTILE = 90


def measure(workload, seconds: float, on_op=None) -> list:
    """Passes until the next one would end after ``seconds``; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result = workload.run_pass(on_op)
        pass_s = time.perf_counter() - t0
        passes.append((pass_s, result))
        if time.perf_counter() - start + pass_s > seconds:
            return passes


def measure_traced(workload, seconds: float, tracer) -> tuple:
    """Untraced and traced passes in turn, so drift in machine speed hits both alike.

    Returns (untraced passes, traced passes, CPU seconds of the traced passes).
    """
    untraced, traced = [], []
    cpu_s = 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result = workload.run_pass()
        untraced.append((time.perf_counter() - t0, result))
        pass_no = len(traced)
        tracer.install()
        try:
            c0, t0 = time.process_time(), time.perf_counter()
            result = workload.run_pass(lambda i: tracer.set_op((pass_no, i)))
            traced.append((time.perf_counter() - t0, result))
            cpu_s += time.process_time() - c0
        finally:
            tracer.restore()
        pair_s = untraced[-1][0] + traced[-1][0]
        if time.perf_counter() - start + pair_s > seconds:
            return untraced, traced, cpu_s


def summarize(passes: list) -> dict:
    """End-to-end metrics of (pass seconds, PassResult) pairs.

    Each timing is taken per pass and reported at the PASS_QUANTILE-th
    percentile over the run's passes; see README.md, "Steadiness". The
    study runners do all their ops inside one call, so a study pass has one
    op time: the pass time per op.
    """
    def over_passes(values) -> float:
        return float(np.percentile(values, PASS_QUANTILE))

    op_p50, op_p99 = [], []
    for t, r in passes:
        latencies = r.latencies or [t / r.attempted]
        op_p50.append(np.percentile(latencies, 50))
        op_p99.append(np.percentile(latencies, 99))
    run_s = over_passes([t for t, _ in passes])
    return {
        "run_s": run_s,
        "ops_per_s": passes[0][1].attempted / run_s,
        "op_p50_ms": over_passes(op_p50) * 1e3,
        "op_p99_ms": over_passes(op_p99) * 1e3,
    }


def run_outcome(untraced: list, passes: list) -> tuple:
    """The run's ops and its run-level checks, from (seconds, PassResult) pairs.

    Every pass repeats the same ops on the same inputs, so the run's ops are
    those of its first pass; every other pass must reproduce that pass's
    outputs and failures. attempted and failed then depend on the seed
    alone, not on how many passes the machine's speed let into the run.
    ``passes`` are the traced passes of a traced run, else ``untraced`` again.
    Returns (the first PassResult, {check name: passed}).
    """
    first = untraced[0][1]

    def same(r) -> bool:
        return (r.fingerprint, r.attempted, r.failed, r.failures) == (
            first.fingerprint, first.attempted, first.failed, first.failures)

    checks = {
        "reruns_identical": all(same(r) for _, r in untraced),
        "traced_equals_untraced": all(same(r) for _, r in passes),
    }
    return first, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import robust_recourse
    import workloads

    os.makedirs(args.out, exist_ok=True)
    workload = workloads.build(args.workload, args.seed, os.path.join(args.out, "study"))
    workload.warm_up(os.path.join(args.out, "warmup"))
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        untraced, passes, cpu_s = measure_traced(workload, args.seconds, tracer)
        tracer.write_spans(os.path.join(args.out, "spans.jsonl"))
    else:
        untraced = passes = measure(workload, args.seconds)

    first, checks = run_outcome(untraced, passes)
    every = untraced + passes if args.trace else passes
    out = {
        "setup_s": setup_s,
        "attempted": first.attempted,
        "failed": first.failed,
        "passes": len(every),
        "pass_s": [t for t, _ in every],
        "ops_per_pass": passes[0][1].attempted,
        "checks": checks,
        "fingerprint": first.fingerprint,
        "failures": first.failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "robust_recourse": robust_recourse.__version__},
    }
    if args.trace:
        layers = tracer.layer_metrics()
        untraced_s = statistics.median(t for t, _ in untraced)
        layers["trace.overhead_ratio"] = statistics.median(t for t, _ in passes) / untraced_s
        layers["process.cpu_s"] = cpu_s
        layers["experiments.output_bytes"] = passes[0][1].output_bytes
        out["layers"] = layers
    else:
        out.update(summarize(passes))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
