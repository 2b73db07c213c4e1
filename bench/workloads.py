"""The three benchmark workloads: seeded op generation, the op itself and
its output check.

Every workload is an endless sequence of blocks. Block ``b`` of seed ``s``
is generated from ``numpy.random.default_rng([s, b])`` alone, so the same
seed always gives the same ops. Each block holds a fixed multiset of op
shapes (for example every Schmidt dimension once per scenario) in a
seeded order with seeded parameters; a run that executes whole blocks
therefore does the same amount of work whatever the seed, and the seed
only moves the parameters the verdicts depend on.

An op is three callables:

* ``prepare()``: untimed set-up of the op's surroundings (clears a stale
  output file);
* ``run()``: the timed call into steerkit, which gets only generated inputs;
* ``check(out)``: untimed, returns ``None`` when the output matches its
  closed form and a one-line reason otherwise.

steerkit functions are always looked up on their module at call time
(``report.run``, never a local alias) so that the traced run sees the
wrappers that ``tracing.py`` installs.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import steerkit.assemblage as assemblage
import steerkit.cli as cli
import steerkit.linalg as linalg
import steerkit.measurements as measurements
import steerkit.report as report
import steerkit.steering as steering

TOL = linalg.DEFAULT_TOL
NO_SIGNALLING_MAX = 1e-12
SCHEMA = "steerkit-report/1"
FEASIBLE = "FeasibleModelFound"
INFEASIBLE = "InfeasibleWithinAnsatz"


@dataclass
class Op:
    spec: dict
    run: Callable[[], object]
    check: Callable[[object], str | None]
    prepare: Callable[[], None] = field(default=lambda: None)


def block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, block])


def _close(value, target, tol) -> bool:
    return value is not None and abs(float(value) - target) <= tol


def _paradox_reason(result: dict, checks: dict, k: int) -> str | None:
    """Closed form of a paradox report: trace sums k and 1, exact
    no-signalling, every conditional state rank one."""
    if result.get("applicable") is not True:
        return f"paradox not applicable: {result.get('reason')}"
    if result.get("k") != k:
        return f"k = {result.get('k')}, expected {k}"
    if not _close(result.get("lhs_trace_sum"), k, TOL.lp):
        return f"lhs_trace_sum {result.get('lhs_trace_sum')} != {k}"
    if not _close(result.get("quantum_trace_sum"), 1.0, TOL.lp):
        return f"quantum_trace_sum {result.get('quantum_trace_sum')} != 1"
    dev = checks.get("no_signalling_deviation")
    if dev is None or dev > NO_SIGNALLING_MAX:
        return f"no-signalling deviation {dev}"
    if checks.get("all_rank_one") is not True:
        return "a conditional state is not rank one"
    return None


def _truncation_reason(weight, r: float, d: int) -> str | None:
    """The NOPA truncation weight is the discarded tail tanh(r)^(2d)."""
    tail = math.tanh(r) ** (2 * d)
    if _close(weight, tail, 1e-12 * max(tail, 1e-300)):
        return None
    return f"truncation_weight {weight} != {tail}"


# --------------------------------------------------------------------------
# qudit-paradox: report.run on d = 6..18 Schmidt states, Z and X settings.

QUDIT_DIMS = range(6, 19)
QUDIT_KINDS = ("uniform", "dirichlet", "nopa")


def _qudit_op(kind: str, d: int, rng: np.random.Generator) -> Op:
    if kind == "uniform":
        kwargs = {"scenario": "paradox-qudit", "d": d}
    elif kind == "dirichlet":
        lam = np.sqrt(rng.dirichlet(np.ones(d)))
        kwargs = {"scenario": "paradox-qudit", "lambdas": ",".join(repr(float(x)) for x in lam)}
    else:
        kwargs = {"scenario": "paradox-nopa", "d": d, "r": float(rng.uniform(0.3, 2.0))}

    def run():
        return report.run(report.RunConfig(**kwargs))

    def check(out):
        doc, code = out
        if code != report.EXIT_OK:
            return f"exit code {code}"
        reason = _paradox_reason(doc.result, doc.checks, 2)
        if reason is None and kind == "nopa":
            reason = _truncation_reason(doc.result.get("truncation_weight"), kwargs["r"], d)
        return reason

    return Op(spec={"kind": kind, "d": d, **kwargs}, run=run, check=check)


def qudit_block(seed: int, block: int) -> list[Op]:
    """Every (kind, d) once, in three rounds that each hold every d once
    with the kinds dealt in seeded rotation, and in seeded order within a
    round. The cost of an op grows steeply with d, so the run's median
    latency is set by the few d = 12 ops; one per round spreads them
    evenly over the run instead of at random moments, which would let
    drift in machine speed decide the median."""
    rng = block_rng(seed, block)
    first_kind = rng.integers(len(QUDIT_KINDS), size=len(QUDIT_DIMS))
    ops = []
    for rnd in range(len(QUDIT_KINDS)):
        cells = [(QUDIT_KINDS[(k + rnd) % len(QUDIT_KINDS)], d) for k, d in zip(first_kind, QUDIT_DIMS)]
        ops += [_qudit_op(*cells[i], rng) for i in rng.permutation(len(cells))]
    return ops


def qudit_warmup() -> Op:
    return _qudit_op("uniform", 6, block_rng(0, 0))


# --------------------------------------------------------------------------
# lp-grid: Werner-state assemblages through the LHS feasibility LP with
# Bloch-sphere candidate grids whose exact threshold is known.

PAULI = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
# Fibonacci-sphere sizes: the midpoints of eight equal strata of 0..248.
FIB_SIZES = (15, 46, 77, 108, 140, 171, 202, 233)
CIRCLE_MULTIPLES = range(1, 9)
# Visibility offsets from the threshold: at least 0.01 on either side.
OFFSET_RANGE = (0.01, 0.25)

_BELL = np.zeros(4, dtype=complex)
_BELL[0] = _BELL[3] = 1 / np.sqrt(2)
_BELL_PROJ = np.outer(_BELL, _BELL.conj())
_PAULI_MATS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def werner(p: float) -> np.ndarray:
    """p |Phi+><Phi+| + (1 - p) 1/4."""
    return p * _BELL_PROJ + (1 - p) * np.eye(4, dtype=complex) / 4


def bloch_state(n) -> np.ndarray:
    x, y, z = n
    return 0.5 * (np.eye(2, dtype=complex) + x * _PAULI_MATS[0] + y * _PAULI_MATS[1] + z * _PAULI_MATS[2])


def circle_grid(points: int) -> list[np.ndarray]:
    """Pure states evenly spaced on the x-z great circle, starting at +z.
    With 8m points the grid holds the four diagonal states of the optimal
    two-setting model, so the LP threshold is exactly 1/sqrt(2)."""
    return [bloch_state((math.sin(t), 0.0, math.cos(t))) for t in 2 * np.pi * np.arange(points) / points]


def cube_fibonacci_grid(n_fib: int) -> list[np.ndarray]:
    """The eight cube-vertex states, which carry the optimal three-setting
    model (threshold exactly 1/sqrt(3)), plus an n_fib-point Fibonacci
    sphere."""
    cube = [bloch_state(np.array(s) / math.sqrt(3)) for s in itertools.product((-1, 1), repeat=3)]
    i = np.arange(n_fib) + 0.5
    z = 1 - 2 * i / max(n_fib, 1)
    r = np.sqrt(1 - z * z)
    phi = np.pi * (1 + math.sqrt(5)) * i
    return cube + [bloch_state((r[j] * math.cos(phi[j]), r[j] * math.sin(phi[j]), z[j])) for j in range(n_fib)]


def _lp_op(axes: str, size: int, above: bool, offset: float) -> Op:
    threshold = 1 / math.sqrt(len(axes))
    p = threshold + offset if above else threshold - offset
    rho = werner(p)
    settings = [measurements.bloch_projectors(PAULI[a]) for a in axes]
    candidates = circle_grid(8 * size) if axes == "zx" else cube_fibonacci_grid(size)
    expected = INFEASIBLE if above else FEASIBLE

    def run():
        asm = assemblage.conditional_states(rho, settings, (2, 2))
        return asm, steering.lhs_feasibility_lp(asm, candidates)

    def check(out):
        asm, outcome = out
        if outcome.status != expected:
            return f"p={p:.6f} vs threshold {threshold:.6f}: {outcome.status}, expected {expected}"
        if outcome.status == FEASIBLE:
            outcome.model.validate(asm.bob_reduced, TOL)
            rec = steering.lhs_reconstruct(outcome.model, settings, TOL)
            dev = max(
                float(np.max(np.abs(rec.state(n, a) - asm.state(n, a))))
                for n in range(len(settings))
                for a in range(settings[n].outcomes)
            )
            if dev > TOL.lp:
                return f"LHS reconstruction deviates by {dev:.3e}"
        return None

    spec = {"axes": axes, "grid": size, "p": p, "expected": expected}
    return Op(spec=spec, run=run, check=check)


def lp_block(seed: int, block: int) -> list[Op]:
    """Every grid size once below and once above the threshold. Within each
    of the four (axes, side) groups of eight ops, one offset is drawn from
    each eighth of OFFSET_RANGE and the eight are dealt to the grid sizes
    in seeded order, so that every block spreads its LP costs the same way
    and the slowest tenth of a run does not hang on a few draws."""
    rng = block_rng(seed, block)
    edges = np.linspace(*OFFSET_RANGE, 9)
    ops = []
    for axes, sizes in (("zx", CIRCLE_MULTIPLES), ("xyz", FIB_SIZES)):
        for above in (False, True):
            offsets = rng.uniform(edges[:-1], edges[1:])[rng.permutation(len(sizes))]
            ops += [_lp_op(axes, size, above, float(off)) for size, off in zip(sizes, offsets)]
    return [ops[i] for i in rng.permutation(len(ops))]


def lp_warmup() -> Op:
    return _lp_op("zx", 1, False, 0.2)


# --------------------------------------------------------------------------
# cli-mix: steerkit.cli.main over every scenario, small inputs, both formats.


def parse_report(text: str, fmt: str) -> dict:
    """Flatten a report to {"a.b.c": value}, the key scheme of the text
    format, so that one set of checks reads both formats."""
    flat = {}
    if fmt == "json":

        def walk(prefix, value):
            if isinstance(value, dict):
                for k, v in value.items():
                    walk(f"{prefix}.{k}" if prefix else str(k), v)
            else:
                flat[prefix] = value

        walk("", json.loads(text))
        return flat
    words = {"True": True, "False": False, "None": None}
    for line in text.splitlines():
        key, sep, raw = line.partition(": ")
        if not sep:
            raise ValueError(f"text report line without 'key: value': {line!r}")
        if raw in words:
            flat[key] = words[raw]
            continue
        try:
            flat[key] = json.loads(raw)
        except ValueError:
            flat[key] = raw
    return flat


def _sections(flat: dict) -> tuple[dict, dict]:
    """(result, checks) of a flattened report, keys without the section."""
    res = {k[len("result.") :]: v for k, v in flat.items() if k.startswith("result.")}
    chk = {k[len("checks.") :]: v for k, v in flat.items() if k.startswith("checks.")}
    return res, chk


def _paradox_check(k: int):
    def check(flat):
        return _paradox_reason(*_sections(flat), k)

    return check


def _nopa_check(r: float, d: int):
    def check(flat):
        reason = _paradox_reason(*_sections(flat), 2)
        return reason or _truncation_reason(flat.get("result.truncation_weight"), r, d)

    return check


def _separable_check(alphas: list[float]):
    # Product state |0>|beta>: Alice's outcome 0 of angle(a) has probability
    # cos(a)^2, and the single hidden state carries all the weight.
    def check(flat):
        dev = flat.get("result.reconstruction_deviation")
        if dev is None or dev > TOL.lp:
            return f"reconstruction deviation {dev}"
        weights = flat.get("result.model.weights")
        if weights is None or len(weights) != 1 or not _close(weights[0], 1.0, TOL.lp):
            return f"hidden-state weights {weights}"
        responses = {(r["setting"], r["outcome"]): r["p"] for r in flat.get("result.model.responses", [])}
        for n, a in enumerate(alphas):
            if not _close(responses.get((n, 0)), math.cos(a) ** 2, TOL.lp):
                return f"response p(0|{n}) = {responses.get((n, 0))}, expected cos^2({a})"
        return None

    return check


def _feasibility_check(flat):
    # A pure entangled state has no LHS model at all, so the LP over any
    # ansatz must come back infeasible with a residual above tolerance.
    status = flat.get("result.status")
    if status != INFEASIBLE:
        return f"feasibility status {status}, expected {INFEASIBLE}"
    if not flat.get("result.residual", 0.0) > TOL.lp:
        return f"infeasible verdict with residual {flat.get('result.residual')}"
    return None


def _ghz_check(flat):
    values = flat.get("result.expectations") or []
    if len(values) != 4 or any(not _close(v, e, TOL.eig) for v, e in zip(values, (1, -1, -1, -1))):
        return f"GHZ expectations {values}"
    residuals = flat.get("result.eigenstate_residuals") or [float("inf")]
    if len(residuals) != 4 or max(residuals) > TOL.eig:
        return f"GHZ eigenstate residuals {residuals}"
    if flat.get("result.satisfying_assignments") != 0 or flat.get("result.witness_product") != -1:
        return "GHZ enumeration found an assignment"
    return None


def _sweep_check(points: list[tuple[str, int]]):
    """points: (scenario, k) expected for each sweep point in order."""

    def check(flat):
        if flat.get("checks.worst_exit_code") != 0:
            return f"sweep worst exit code {flat.get('checks.worst_exit_code')}"
        reports = flat.get("result.reports") or []
        if flat.get("result.summary.points") != len(points) or len(reports) != len(points):
            return f"sweep has {len(reports)} points, expected {len(points)}"
        for i, ((scenario, k), doc) in enumerate(zip(points, reports)):
            if doc.get("schema") != SCHEMA or doc.get("scenario") != scenario:
                return f"sweep point {i}: {doc.get('schema')} {doc.get('scenario')}"
            reason = _paradox_reason(doc.get("result", {}), doc.get("checks", {}), k)
            if reason:
                return f"sweep point {i}: {reason}"
        return None

    return check


def _angle_token(rng) -> str:
    # Keep clear of angle 0 and pi/2 (the z basis) and pi/4 (the x basis).
    a = float(rng.choice([rng.uniform(0.1, 0.65), rng.uniform(0.92, 1.47)]))
    return f"angle:{a!r}"


def _cli_cases(rng) -> list[tuple[list[str], Callable]]:
    """One argv per scenario family, each with the check of its closed form."""
    cases = []

    theta = float(rng.uniform(0.15, 1.42))
    pool = ["z", "x", "y", _angle_token(rng)]
    k = int(rng.integers(2, 5))
    settings = [pool[i] for i in sorted(rng.choice(len(pool), size=k, replace=False))]
    cases.append((["paradox-qubit", "--theta", repr(theta), "--settings", ",".join(settings)], _paradox_check(k)))

    d = int(rng.integers(2, 9))
    cases.append((["paradox-qudit", "--d", str(d)], _paradox_check(2)))

    lam = np.sqrt(rng.dirichlet(np.ones(int(rng.integers(2, 9)))))
    cases.append((["paradox-qudit", "--lambdas", ",".join(repr(float(x)) for x in lam)], _paradox_check(2)))

    r, d = float(rng.uniform(0.3, 2.0)), int(rng.integers(2, 9))
    cases.append((["paradox-nopa", "--r", repr(r), "--d", str(d)], _nopa_check(r, d)))

    beta = float(rng.uniform(0.1, 1.4))
    alphas = [float(a) for a in rng.uniform(0.0, math.pi, size=int(rng.integers(2, 4)))]
    argv = ["separable-lhs", "--beta-angle", repr(beta), "--alphas", ",".join(repr(a) for a in alphas)]
    cases.append((argv, _separable_check(alphas)))

    theta = float(rng.uniform(0.15, 1.42))
    settings = "z,x" if rng.random() < 0.5 else "z,x,y"
    cases.append((["feasibility", "--theta", repr(theta), "--settings", settings], _feasibility_check))

    cases.append((["ghz"], _ghz_check))

    num = int(rng.integers(10, 41))
    lo, hi = float(rng.uniform(0.1, 0.4)), float(rng.uniform(1.1, 1.45))
    argv = ["sweep", "--param", "theta", "--linspace", f"{lo!r}:{hi!r}:{num}"]
    cases.append((argv, _sweep_check([("paradox-qubit", 2)] * num)))

    ks = sorted(int(x) for x in rng.choice(np.arange(2, 7), size=int(rng.integers(2, 5)), replace=False))
    theta = float(rng.uniform(0.15, 1.42))
    argv = ["sweep", "--param", "k", "--theta", repr(theta), "--values", ",".join(map(str, ks))]
    cases.append((argv, _sweep_check([("paradox-qubit", k) for k in ks])))

    ds = sorted(int(x) for x in rng.choice(np.arange(2, 9), size=int(rng.integers(2, 5)), replace=False))
    argv = ["sweep", "--param", "d", "--values", ",".join(map(str, ds))]
    cases.append((argv, _sweep_check([("paradox-qudit", 2)] * len(ds))))
    return cases


def _cli_op(argv: list[str], fmt: str, check_report: Callable, out_path: str) -> Op:
    full = argv + ["--format", fmt, "--output", out_path]

    def prepare():
        if os.path.exists(out_path):
            os.remove(out_path)

    def run():
        return cli.main(full)

    def check(code):
        if code != report.EXIT_OK:
            return f"exit code {code}"
        with open(out_path) as fh:
            flat = parse_report(fh.read(), fmt)
        if flat.get("schema") != SCHEMA or flat.get("scenario") != argv[0]:
            return f"report header {flat.get('schema')} {flat.get('scenario')}"
        return check_report(flat)

    return Op(spec={"argv": full[:-2]}, run=run, check=check, prepare=prepare)


def cli_block(seed: int, block: int, out_path: str) -> list[Op]:
    rng = block_rng(seed, block)
    ops = [_cli_op(argv, fmt, chk, out_path) for argv, chk in _cli_cases(rng) for fmt in ("json", "text")]
    return [ops[i] for i in rng.permutation(len(ops))]


def cli_warmup(out_path: str) -> Op:
    return _cli_op(["paradox-qubit", "--theta", "0.7", "--settings", "z,x"], "json", _paradox_check(2), out_path)


# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    block: Callable[[int, int], list[Op]]
    warmup: Callable[[], Op]
    trace_blocks: int  # blocks in the fixed op prefix a traced run covers


NAMES = ("qudit-paradox", "lp-grid", "cli-mix")


def get(name: str, scratch_dir: str) -> Workload:
    if name == "qudit-paradox":
        return Workload(qudit_block, qudit_warmup, 1)
    if name == "lp-grid":
        return Workload(lp_block, lp_warmup, 6)
    if name == "cli-mix":
        out_path = os.path.join(scratch_dir, "cli-report.out")  # one worker at a time uses it
        return Workload(lambda s, b: cli_block(s, b, out_path), lambda: cli_warmup(out_path), 10)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
