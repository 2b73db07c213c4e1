"""Spans around steerkit's layers, installed from outside the library.

``Tracer.install`` replaces each traced function with a wrapper, in every
``steerkit.*`` module namespace that binds it (``report`` imports
``conditional_states`` by name, ``cli`` imports ``run``, and so on), and
replaces traced methods on their class. Nothing under ``src/`` changes;
``uninstall`` puts the originals back.

A span records its name, start, end, parent span and op id, plus the
counters its target defines. Spans stay in memory until the run ends.
Wrappers only record while ``Tracer.active`` is set, which the worker
sets around the timed call of each op, so input generation and output
checks leave no spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

START, END, PARENT, OP, NAME, COUNTS = range(6)


def _flops(args, kwargs, out):
    # The dense formulation's cost for the call's sizes: one complex
    # (dA dB)^3 product kron(P, 1) @ rho per projector, 8 real flops per
    # complex multiply-add. Computed from sizes, not observed.
    settings = list(args[1] if len(args) > 1 else kwargs["settings"])
    dA, dB = args[2] if len(args) > 2 else kwargs["dims"]
    return {"flops": 8 * (dA * dB) ** 3 * sum(len(s.projectors) for s in settings)}


def _nbytes(args, kwargs, out):
    return {"bytes": int(out.nbytes)}


def _simplex(args, kwargs, out):
    rows, cols = np.shape(args[0] if args else kwargs["A"])
    return {"pivots": int(out.iterations), "rows": rows, "cols": cols}


def _rendered(args, kwargs, out):
    return {"bytes": len(out)}


# (module, attribute, span name, counters). An attribute "Class.method"
# is replaced on the class.
TARGETS = (
    ("steerkit.states", "theta_state", "states.build", None),
    ("steerkit.states", "qudit_schmidt_state", "states.build", None),
    ("steerkit.states", "nopa_truncated", "states.build", None),
    ("steerkit.states", "separable_state", "states.build", None),
    ("steerkit.states", "ghz_state", "states.build", None),
    ("steerkit.states", "BipartitePureState.density_matrix", "states.build", _nbytes),
    ("steerkit.measurements", "bloch_projectors", "measurements.build", None),
    ("steerkit.measurements", "angle_projectors", "measurements.build", None),
    ("steerkit.measurements", "computational_basis", "measurements.build", None),
    ("steerkit.measurements", "fourier_mub_basis", "measurements.build", None),
    ("steerkit.measurements", "basis_from_unitary", "measurements.build", None),
    ("steerkit.measurements", "validate_setting", "measurements.validate", None),
    ("steerkit.assemblage", "conditional_states", "assemblage.build", _flops),
    ("steerkit.assemblage", "purity_profile", "assemblage.purity", None),
    ("steerkit.linalg", "hermitian_eig", "linalg.eig", None),
    ("steerkit.linalg", "trace_distance", "linalg.eig", None),
    ("steerkit.simplex", "phase_one", "simplex.solve", _simplex),
    ("steerkit.steering", "pure_state_paradox", "steering.certificate", None),
    ("steerkit.steering", "lhs_feasibility_lp", "steering.lp", None),
    ("steerkit.steering", "lhs_reconstruct", "steering.reconstruct", None),
    ("steerkit.steering", "separable_lhs_model", "steering.other", None),
    ("steerkit.steering", "default_candidates", "steering.other", None),
    ("steerkit.steering", "ghz_operator_expectations", "steering.other", None),
    ("steerkit.steering", "ghz_lhv_bruteforce", "steering.other", None),
    ("steerkit.report", "run", "report.run", None),
    ("steerkit.report", "asdict", "report.serialize", None),
    ("steerkit.report", "ReportDocument.to_json", "report.serialize", None),
    ("steerkit.report", "ReportDocument.to_text", "report.serialize", None),
    ("steerkit.report", "ReportDocument.render", "report.serialize", _rendered),
    ("steerkit.cli", "build_parser", "cli.parse", None),
    ("steerkit.cli", "make_config", "cli.parse", None),
    ("steerkit.cli", "_emit", "cli.emit", None),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [start, end, parent index, op id, name, counters]
        self.active = False
        self._stack = []
        self._op = -1
        self._undo = []

    def wrap(self, name, fn, counters=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            row = [0.0, 0.0, stack[-1] if stack else -1, self._op, name, None]
            stack.append(len(spans))
            spans.append(row)
            row[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                row[END] = time.perf_counter()
                stack.pop()
            if counters is not None:
                row[COUNTS] = counters(args, kwargs, out)
            return out

        return traced

    def begin_op(self, op_id: int) -> None:
        """Open the root span of one op and start recording."""
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append([0.0, 0.0, -1, op_id, "op", None])
        self.active = True
        self.spans[-1][START] = time.perf_counter()

    def end_op(self) -> None:
        end = time.perf_counter()
        self.active = False
        self.spans[self._stack.pop()][END] = end

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "steerkit" or n.startswith("steerkit.")]
        for module_name, attr, name, counters in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                self._set(owner, attr, self.wrap(name, getattr(owner, attr), counters))
                continue
            original = getattr(owner, attr)
            if attr == "build_parser":
                original = self._parser_factory(original)
            wrapped = self.wrap(name, original, counters)
            target = getattr(owner, attr)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is target:
                        self._set(module, key, wrapped)

    def _parser_factory(self, build_parser):
        """build_parser whose parser also traces its own parse_args."""

        @functools.wraps(build_parser)
        def build():
            parser = build_parser()
            parser.parse_args = self.wrap("cli.parse", parser.parse_args)
            return parser

        return build

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (start, end, parent, op, name, counts) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                if counts:
                    row.update(counts)
                fh.write(json.dumps(row) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.
    Spans of one thread nest, so direct children never overlap."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_metrics(spans, op_walls: list[float]) -> dict:
    """Per-layer metrics of a traced pass over len(op_walls) ops.

    Times are self times in seconds per op; counts are per op, except
    simplex.pivots, which is the exact total over the traced ops.
    Raises ValueError if the self times of an op's spans exceed its wall
    time.
    """
    ops = len(op_walls)
    selfs = self_times(spans)
    time_by = defaultdict(float)
    calls_by = defaultdict(int)
    counter_by = defaultdict(float)
    per_op_self = defaultdict(float)
    for s, t in zip(spans, selfs):
        time_by[s[NAME]] += t
        calls_by[s[NAME]] += 1
        per_op_self[s[OP]] += t
        for key, value in (s[COUNTS] or {}).items():
            counter_by[f"{s[NAME]}.{key}"] += value
    for op, wall in enumerate(op_walls):
        if per_op_self[op] > wall:
            raise ValueError(f"op {op}: span self times {per_op_self[op]:.6g} s exceed its wall time {wall:.6g} s")

    solves = calls_by["simplex.solve"]
    pivots = counter_by["simplex.solve.pivots"]
    return {
        "assemblage.build_s": (time_by["assemblage.build"] / ops, "s"),
        "assemblage.builds_per_op": (calls_by["assemblage.build"] / ops, "count"),
        "assemblage.build_flops_computed": (counter_by["assemblage.build.flops"] / ops, "flop"),
        "assemblage.purity_s": (time_by["assemblage.purity"] / ops, "s"),
        "assemblage.purity_per_op": (calls_by["assemblage.purity"] / ops, "count"),
        "linalg.eig_calls": (calls_by["linalg.eig"] / ops, "count"),
        "linalg.eig_s": (time_by["linalg.eig"] / ops, "s"),
        "states.build_s": (time_by["states.build"] / ops, "s"),
        "states.density_bytes_computed": (counter_by["states.build.bytes"] / ops, "B"),
        "measurements.build_s": (time_by["measurements.build"] / ops, "s"),
        "measurements.validate_s": (time_by["measurements.validate"] / ops, "s"),
        "measurements.validate_calls": (calls_by["measurements.validate"] / ops, "count"),
        "simplex.solve_s": (time_by["simplex.solve"] / ops, "s"),
        "simplex.pivots": (pivots, "count"),
        "simplex.us_per_pivot": (1e6 * time_by["simplex.solve"] / pivots if pivots else 0.0, "us"),
        "simplex.rows": (counter_by["simplex.solve.rows"] / solves if solves else 0.0, "count"),
        "simplex.cols": (counter_by["simplex.solve.cols"] / solves if solves else 0.0, "count"),
        "steering.certificate_s": (time_by["steering.certificate"] / ops, "s"),
        "steering.lp_self_s": (time_by["steering.lp"] / ops, "s"),
        "steering.reconstruct_s": (time_by["steering.reconstruct"] / ops, "s"),
        "steering.other_s": (time_by["steering.other"] / ops, "s"),
        "report.run_self_s": (time_by["report.run"] / ops, "s"),
        "report.serialize_s": (time_by["report.serialize"] / ops, "s"),
        "report.bytes": (counter_by["report.serialize.bytes"] / ops, "B"),
        "report.runs_per_op": (calls_by["report.run"] / ops, "count"),
        "cli.parse_s": (time_by["cli.parse"] / ops, "s"),
        "cli.emit_s": (time_by["cli.emit"] / ops, "s"),
        "trace.unattributed_s": (time_by["op"] / ops, "s"),
        "trace.spans_per_op": (len(spans) / ops, "count"),
    }
