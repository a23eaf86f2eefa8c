"""One measured benchmark process; started by ``run.py``.

Builds the workload's inputs, prints ``ready`` (``run.py`` times set-up
from process start to that line), then runs one closed loop with a
single caller and prints one JSON line with its measurements.

    --setup-only   stop after ``ready``
    --trace 0      time whole passes over the pool for about --seconds
    --trace 1      a fixed number of ops untraced, then twice traced
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback

from workloads import WORKLOADS


def run_pass(run_op, ops, latencies) -> int:
    """Run every op once, in order, appending each latency; returns the
    number of failed ops."""
    failed = 0
    clock = time.perf_counter
    for op in ops:
        t0 = clock()
        try:
            ok = run_op(op)
        except Exception:  # a raising op is a failed op; keep measuring
            ok = False
            if failed < 3:
                traceback.print_exc(file=sys.stderr)
        latencies.append(clock() - t0)
        failed += not ok
    return failed


def quantile_ms(latencies, q):
    """Harrell-Davis estimate of the q-quantile, in milliseconds.

    A Beta(q(n+1), (1-q)(n+1))-weighted mean of all order statistics:
    near the steep tail of an op-cost distribution that spans two orders
    of magnitude it is far steadier than the single nearest-rank sample.
    The weights are Beta masses of [i/n, (i+1)/n], by the midpoint rule.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 4
    window = 12 * math.sqrt(q * (1 - q) / (n + 2)) + 2 / n  # rest ~ 0
    weighted = total = 0.0
    for i, x in enumerate(ordered):
        if abs((i + 0.5) / n - q) > window:
            continue
        w = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            w += math.exp(log_norm + (a - 1) * math.log(t)
                          + (b - 1) * math.log1p(-t))
        weighted += w * x
        total += w
    return 1000 * weighted / total


def timed(workload, ops, seconds):
    """Whole passes over the pool, as many as come closest to
    ``seconds`` (at least one), so every op of the pool weighs the same
    in every run; the pool's op costs span two orders of magnitude."""
    latencies: list[float] = []
    failed = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        failed += run_pass(workload.run_op, ops, latencies)
        now = time.perf_counter()
        if now - start + (now - pass_start) / 2 >= seconds:
            break
    elapsed = now - start
    attempted = len(latencies)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "ops_per_s": attempted / elapsed,
            "op_p50_ms": quantile_ms(latencies, 0.5),
            "op_p90_ms": quantile_ms(latencies, 0.9),
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }


def traced(workload, ops):
    """The pool's first ``trace_ops`` ops once untraced, then twice
    traced; the second traced pass must repeat the first one's counts."""
    from layertrace import Tracer, is_count, layer_metrics

    sequence = ops[:workload.trace_ops]
    clock = time.perf_counter
    start = clock()
    failed = run_pass(workload.run_op, sequence, [])
    plain_s = clock() - start
    tracer = Tracer()
    tracer.install()
    try:
        start = clock()
        failed += run_pass(workload.run_op, sequence, [])
        traced_s = clock() - start
        metrics = layer_metrics(tracer)
        tracer.reset()
        failed += run_pass(workload.run_op, sequence, [])
        repeat = layer_metrics(tracer)
    finally:
        tracer.uninstall()
    metrics["trace.overhead_ratio"] = plain_s / traced_s
    return {
        "attempted": 3 * len(sequence),
        "failed": failed,
        "counts_repeat": all(metrics[k] == repeat[k]
                             for k in metrics if is_count(k)),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    ops = workload.build(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    from flagposet import kernel

    result = traced(workload, ops) if args.trace else timed(
        workload, ops, args.seconds)
    result["provenance"] = {
        "kernel": kernel.IMPLEMENTATION,
        "python": sys.version.split()[0],
        "pool_ops": len(ops),
        "recipe": workload.recipe,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
