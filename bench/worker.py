"""One benchmark worker process: a single client in a closed loop.

Started by ``run.py``. It imports steerkit from ``src/`` of the checkout,
runs one untimed warm-up op and prints ``ready``. It then reads one
command from stdin: ``exit`` ends it (a set-up sample), ``run`` runs the
workload and prints one JSON line of results.

With ``--trace 0`` the loop runs whole blocks of ops until the summed op
time reaches ``--seconds`` and at least ``MIN_OPS`` ops have run. With
``--trace 1`` it runs each op of the workload's fixed op prefix twice,
untraced and then traced, so the per-layer counts repeat exactly for a
seed and the two passes give the tracing overhead on identical inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile
WALL_CAP_S = 100.0  # stop mid-block rather than overrun the run's time limit
FAILURES_KEPT = 5


def environment() -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


class Loop:
    """Runs ops one after another, timing only the steerkit call."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies = []
        self.failures = []
        self.failed = 0
        self.busy = 0.0
        self.busy_cpu = 0.0

    def run_op(self, op) -> None:
        op.prepare()
        tracer = self.tracer
        c0, t0 = time.process_time(), time.perf_counter()
        if tracer:
            tracer.begin_op(len(self.latencies))
        try:
            out = op.run()
            reason = None
        except Exception as exc:  # a raising op is a failed op, not a crash
            reason = f"raised {exc!r}"
        if tracer:
            tracer.end_op()
        elapsed = time.perf_counter() - t0
        self.busy_cpu += time.process_time() - c0
        self.latencies.append(elapsed)
        self.busy += elapsed
        if reason is None:
            try:
                reason = op.check(out)
            except Exception as exc:  # a check that cannot read the output fails the op
                reason = f"check raised {exc!r}"
        if reason is not None:
            self.failed += 1
            if len(self.failures) < FAILURES_KEPT:
                self.failures.append({"spec": op.spec, "reason": reason})


def timed_run(workload, seed: int, seconds: float) -> dict:
    loop = Loop()
    start = time.perf_counter()
    block = 0
    while loop.busy < seconds or len(loop.latencies) < MIN_OPS:
        for op in workload.block(seed, block):
            loop.run_op(op)
            if time.perf_counter() - start > WALL_CAP_S:
                break
        block += 1
        if time.perf_counter() - start > WALL_CAP_S:
            break
    lat_ms = [1e3 * x for x in loop.latencies]
    p90 = statistics.quantiles(lat_ms, n=10)[8]
    return {
        "attempted": len(lat_ms),
        "failed": loop.failed,
        "failures": loop.failures,
        "blocks": block,
        "busy_s": loop.busy,
        "busy_cpu_s": loop.busy_cpu,
        "ops_per_s": len(lat_ms) / loop.busy,
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": p90,
        "beyond_p90": sum(x > p90 for x in lat_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(workload, seed: int, spans_path: str) -> dict:
    """Each op of the fixed prefix runs untraced and then traced, back to
    back, so that drift in machine speed cancels out of the overhead."""
    import tracing

    ops = [op for b in range(workload.trace_blocks) for op in workload.block(seed, b)]
    tracer = tracing.Tracer()
    plain, traced = Loop(), Loop(tracer)
    for op in ops:
        plain.run_op(op)
        tracer.install()
        try:
            traced.run_op(op)
        finally:
            tracer.uninstall()
    tracer.write(spans_path)
    metrics = tracing.layer_metrics(tracer.spans, traced.latencies)
    metrics["trace.overhead_ratio"] = (traced.busy / plain.busy, "ratio")
    return {
        "traced_ops": len(ops),
        "attempted": 2 * len(ops),
        "failed": plain.failed + traced.failed,
        "failures": (plain.failures + traced.failures)[:FAILURES_KEPT],
        "untraced_ops_per_s": len(ops) / plain.busy,
        "traced_ops_per_s": len(ops) / traced.busy,
        "layers": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import steerkit

    if not Path(steerkit.__file__).resolve().is_relative_to(SRC):
        print(f"worker: imported steerkit from {steerkit.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    import workloads

    workload = workloads.get(args.workload, args.scratch)
    workload.warmup().run()
    print("ready", flush=True)

    if sys.stdin.readline().strip() != "run":
        return 0
    if args.trace:
        spans = os.path.join(args.scratch, f"spans-{args.workload}-seed{args.seed}.jsonl")
        result = traced_run(workload, args.seed, spans)
    else:
        result = timed_run(workload, args.seed, args.seconds)
    result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
