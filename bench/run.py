"""steerkit benchmark: one closed-loop client per workload.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {qudit-paradox,lp-grid,cli-mix} \\
        --seed N [--seconds S] [--trace 0|1]

It prints every metric by name with its unit, then the environment, and
as its last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones from a traced run. The same record, with
the environment and the sample counts, is written under ``.bench_out/``.

The workload runs in worker processes (``worker.py``) that import
steerkit from ``src/``, with BLAS pinned to ``BLAS_THREADS`` threads.
``setup_s`` is the median over ``SETUP_SAMPLES`` fresh workers, started
before and after the measuring one, of the time from process start to
the end of ``import steerkit`` plus one warm-up op. Exits non-zero, printing no result, if ``src/steerkit`` is
missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out"
WORKLOADS = ("qudit-paradox", "lp-grid", "cli-mix")
BLAS_THREADS = 1
SETUP_SAMPLES = 9
READY_TIMEOUT_S = 60.0
RUN_TIMEOUT_S = 150.0
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """A worker process, started and timed up to its ``ready`` line."""

    def __init__(self, args, trace: int):
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(trace),
            "--scratch", str(SCRATCH),
        ]  # fmt: skip
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=worker_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            self.setup_s = time.perf_counter() - start
            if line.strip() != "ready":
                raise BenchError(f"worker did not become ready (exit code {self.proc.poll()})")
        except BaseException:
            self.stop()
            raise

    def finish(self, command: str) -> str:
        try:
            out, _ = self.proc.communicate(command + "\n", timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError(f"worker exceeded {RUN_TIMEOUT_S} s") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        return out

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def host_environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
        "blas_threads_pinned": BLAS_THREADS,
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_sample(args) -> float:
    w = Worker(args, args.trace)
    w.finish("exit")
    return w.setup_s


def measure(args) -> tuple[dict, dict]:
    # Untraced runs take set-up samples before and after the measuring
    # worker, so that their median spans the run's drift in machine speed.
    extra = SETUP_SAMPLES - 1 if args.trace == 0 else 0
    setups = [setup_sample(args) for _ in range(extra // 2)]
    w = Worker(args, args.trace)
    setups.append(w.setup_s)
    lines = w.finish("run").strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    setups += [setup_sample(args) for _ in range(extra - extra // 2)]
    result = json.loads(lines[-1])
    result["setup_samples_s"] = setups
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["layers"].items()}
    else:
        result["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return result, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "steerkit" / "__init__.py").is_file():
        print(f"bench: no steerkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    try:
        result, metrics = measure(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    env = {**host_environment(args.seed), **result.pop("env")}
    record = {"workload": args.workload, "trace": args.trace, "env": env, **result}
    record["metrics"] = metrics
    out_file = SCRATCH / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    if args.trace:
        print(f"traced {result['traced_ops']} ops twice: untraced "
              f"{result['untraced_ops_per_s']:.4g} ops/s, traced {result['traced_ops_per_s']:.4g} ops/s")
    else:
        print(f"samples: {result['attempted']} ops in {result['blocks']} blocks, "
              f"{result['beyond_p90']} beyond p90; set-up samples {len(result['setup_samples_s'])}")
    print(f"fail_ratio: {result['failed'] / result['attempted']:.6g} ({result['failed']}/{result['attempted']})")
    for failure in result["failures"]:
        print(f"failed op: {json.dumps(failure)}", file=sys.stderr)
    print("env: " + json.dumps(env))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
