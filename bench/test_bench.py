"""The benchmark's own tests: same seed, same ops and same exact counts.

Run from the root of a checkout: ``python3 -m pytest bench/test_bench.py``.
"""

import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import steerkit.report  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def specs(name, seed, blocks, scratch):
    wl = workloads.get(name, str(scratch))
    return [op.spec for b in range(blocks) for op in wl.block(seed, b)]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_same_ops(name, tmp_path):
    first = specs(name, 7, 2, tmp_path)
    assert first == specs(name, 7, 2, tmp_path)
    assert first != specs(name, 8, 2, tmp_path)


def test_qudit_blocks_hold_every_shape_once(tmp_path):
    for seed in (1, 2):
        ops = specs("qudit-paradox", seed, 1, tmp_path)
        shapes = Counter((s["kind"], s["d"]) for s in ops)
        assert shapes == Counter((k, d) for k in workloads.QUDIT_KINDS for d in workloads.QUDIT_DIMS)
        n = len(workloads.QUDIT_DIMS)
        for rnd in range(len(workloads.QUDIT_KINDS)):
            assert sorted(s["d"] for s in ops[rnd * n : (rnd + 1) * n]) == list(workloads.QUDIT_DIMS)


def test_lp_blocks_hold_every_shape_once_with_stratified_offsets(tmp_path):
    lo, hi = workloads.OFFSET_RANGE
    for seed in (1, 2):
        ops = specs("lp-grid", seed, 1, tmp_path)
        shapes = Counter((s["axes"], s["grid"], s["expected"]) for s in ops)
        grids = [("zx", m) for m in workloads.CIRCLE_MULTIPLES] + [("xyz", n) for n in workloads.FIB_SIZES]
        assert shapes == Counter((a, g, e) for a, g in grids for e in (workloads.FEASIBLE, workloads.INFEASIBLE))
        for axes in ("zx", "xyz"):
            for expected in (workloads.FEASIBLE, workloads.INFEASIBLE):
                threshold = 1 / len(axes) ** 0.5
                offsets = [abs(s["p"] - threshold) for s in ops if s["axes"] == axes and s["expected"] == expected]
                strata = sorted(int((x - lo) / (hi - lo) * 8) for x in offsets)
                assert strata == list(range(8))


def traced_block(name, seed, scratch):
    """Run block 0 traced; return (layer metrics, failure reasons)."""
    wl = workloads.get(name, str(scratch))
    tracer = tracing.Tracer()
    tracer.install()
    walls, reasons = [], []
    try:
        for i, op in enumerate(wl.block(seed, 0)):
            op.prepare()
            t0 = time.perf_counter()
            tracer.begin_op(i)
            out = op.run()
            tracer.end_op()
            walls.append(time.perf_counter() - t0)
            reasons.append(op.check(out))
    finally:
        tracer.uninstall()
    return tracing.layer_metrics(tracer.spans, walls), reasons


def test_lp_grid_pivots_repeat_exactly(tmp_path):
    original = steerkit.report.conditional_states
    first, reasons = traced_block("lp-grid", 3, tmp_path)
    assert steerkit.report.conditional_states is original
    second, _ = traced_block("lp-grid", 3, tmp_path)
    assert reasons == [None] * len(reasons)
    assert first["simplex.pivots"][0] > 0
    assert first["simplex.pivots"] == second["simplex.pivots"]
    assert first["assemblage.builds_per_op"] == (1.0, "count")


def test_cli_mix_block_passes_its_checks(tmp_path):
    metrics, reasons = traced_block("cli-mix", 5, tmp_path)
    assert reasons == [None] * len(reasons)
    assert metrics["report.runs_per_op"][0] > 1
    assert metrics["cli.parse_s"][0] > 0
