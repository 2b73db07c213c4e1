"""Scenario runner and report documents.

Each scenario executes the library end-to-end and produces a
ReportDocument that serializes losslessly to the ``steerkit-report/1``
JSON schema or to a line-oriented ``key: value`` text form.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field  # noqa: F401  bench/tracing.py wraps report.asdict

import numpy as np

from .assemblage import conditional_states, no_signalling_check
from .linalg import DEFAULT_TOL, Tolerances
from .measurements import (
    angle_projectors,
    bloch_projectors,
    computational_basis,
    fourier_mub_basis,
)
from .states import PureStates, ghz_state, nopa_truncated, qudit_schmidt_state, separable_state, theta_state
from .steering import (
    GHZ_TARGETS,
    DegenerateSettingGeometryError,
    ghz_lhv_bruteforce,
    ghz_operator_expectations,
    lhs_feasibility_lp,
    lhs_reconstruct,
    pure_state_paradox,
    separable_lhs_model,
)

SCHEMA_VERSION = "steerkit-report/1"

SCENARIOS = (
    "paradox-qubit",
    "paradox-qudit",
    "paradox-nopa",
    "separable-lhs",
    "feasibility",
    "ghz",
    "sweep",
)

FORMATS = ("json", "text")

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_NUMERICAL = 2

# Specs whose parsed settings are kept: a theta or r sweep parses its one
# spec once. Settings are immutable, so the tuples can be shared.
_SETTINGS_CACHE = 64


@dataclass
class RunConfig:
    """One scenario invocation. Unused fields stay at their defaults.

    Every field with a plain default is also a CLI flag and a config-file
    key of the same name; a field's metadata holds its flag's help or
    choices."""

    scenario: str
    theta: float = np.pi / 4
    d: int = 2
    r: float = 1.0
    k: int = 2
    settings: str = ""
    lambdas: str = field(default="", metadata={"help": "comma-separated Schmidt coefficients"})
    beta_angle: float = np.pi / 4
    alphas: str = field(default="0.3,1.1", metadata={"help": "comma-separated setting angles"})
    param: str = field(default="", metadata={"help": "sweep parameter: theta, d, r or k"})
    values: str = field(default="", metadata={"help": "comma-separated sweep grid"})
    linspace: str = field(default="", metadata={"help": "sweep grid as lo:hi:num"})
    output: str = field(default="", metadata={"help": "write the report here instead of stdout"})
    format: str = field(default="json", metadata={"choices": FORMATS})
    tolerances: Tolerances = field(default_factory=lambda: DEFAULT_TOL)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        if self.format not in FORMATS:
            raise ValueError(f"format must be 'json' or 'text', got {self.format!r}")


@dataclass
class ReportDocument:
    """Machine-readable record of one scenario run."""

    schema: str
    scenario: str
    config: dict
    result: dict
    checks: dict
    duration_s: float

    def to_json(self) -> str:
        """One line: without indent, json.dumps runs its C encoder."""
        return json.dumps(vars(self))

    @staticmethod
    def from_json(text: str) -> "ReportDocument":
        return ReportDocument(**json.loads(text))

    def to_text(self) -> str:
        lines = []

        def emit(prefix, value):
            if isinstance(value, dict):
                for k, v in value.items():
                    emit(f"{prefix}.{k}" if prefix else str(k), v)
            elif isinstance(value, list):
                lines.append(f"{prefix}: {json.dumps(value)}")
            else:
                lines.append(f"{prefix}: {value}")

        emit("", vars(self))
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        return self.to_json() if fmt == "json" else self.to_text()


@functools.lru_cache(maxsize=_SETTINGS_CACHE)
def parse_qubit_settings(spec: str) -> tuple:
    """Parse a comma-separated qubit settings spec into a tuple of
    settings (cached: equal specs share one tuple).

    Tokens: ``z``, ``x``, ``y``, ``angle:A`` (radians), or
    ``bloch:nx:ny:nz``.
    """
    axes = {"z": (0.0, 0.0, 1.0), "x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0)}
    out = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        low = token.lower()
        if low in axes:
            out.append(bloch_projectors(axes[low]))
        elif low.startswith("angle:"):
            out.append(angle_projectors(float(token.split(":", 1)[1])))
        elif low.startswith("bloch:"):
            parts = [float(x) for x in token.split(":")[1:]]
            if len(parts) != 3:
                raise ValueError(f"bloch token needs 3 components: {token!r}")
            out.append(bloch_projectors(parts))
        else:
            raise ValueError(f"unknown setting token {token!r}")
    if not out:
        raise ValueError(f"no settings parsed from {spec!r}")
    return tuple(out)


@functools.lru_cache(maxsize=_SETTINGS_CACHE)
def parse_qudit_settings(spec: str, d: int) -> tuple:
    """Parse a comma-separated qudit settings spec, ``Z`` and/or ``X`` (cached)."""
    out = []
    for token in spec.split(","):
        token = token.strip().upper()
        if not token:
            continue
        if token == "Z":
            out.append(computational_basis(d))
        elif token == "X":
            out.append(fourier_mub_basis(d))
        else:
            raise ValueError(f"unknown qudit setting token {token!r}")
    if not out:
        raise ValueError(f"no settings parsed from {spec!r}")
    return tuple(out)


def _assemblage_checks(no_signalling_deviation: float) -> dict:
    # Factored rows are rank one by construction; schema 2 drops the last two keys.
    return {"no_signalling_deviation": no_signalling_deviation, "all_rank_one": True, "max_purity_residual": 0.0}


def _certificate_exit(cert, tol: Tolerances) -> int:
    if not cert.applicable:
        return EXIT_PRECONDITION
    ok = abs(cert.lhs_trace_sum - cert.k) <= tol.lp and abs(cert.quantum_trace_sum - 1.0) <= tol.lp
    return EXIT_OK if ok else EXIT_NUMERICAL


def _document(cfg: RunConfig, result: dict, checks: dict, duration_s: float) -> ReportDocument:
    """The report of a cfg run; its config is cfg's fields in order, the
    tolerances as a dict of their own."""
    config = {**vars(cfg), "tolerances": dict(vars(cfg.tolerances))}
    return ReportDocument(SCHEMA_VERSION, cfg.scenario, config, result, checks, duration_s)


def _model_exit(model, settings, asm, tol: Tolerances):
    """(exit code, max |reconstructed - assemblage| over the stack).

    The code is EXIT_NUMERICAL unless the model validates (inside
    lhs_reconstruct) and reconstructs the assemblage and rho_B within
    tol.lp; a model that does not validate has deviation NaN."""
    try:
        rec = lhs_reconstruct(model, settings, tol)
    except ValueError:
        return EXIT_NUMERICAL, float("nan")
    dev = float(np.max(np.abs(rec.stack - asm.stack)))
    bob = np.max(np.abs(rec.bob_reduced - asm.bob_reduced))
    return (EXIT_OK if max(dev, bob) <= tol.lp else EXIT_NUMERICAL), dev


def _paradox_input(cfg: RunConfig):
    """(state, settings, extra result fields) of a paradox-* config."""
    if cfg.scenario == "paradox-qubit":
        settings = parse_qubit_settings(cfg.settings or "z,x")
        return theta_state(cfg.theta), settings, {}
    if cfg.scenario == "paradox-qudit":
        if cfg.lambdas:
            lam = np.array([float(x) for x in cfg.lambdas.split(",")])
            if not 0 < (top := np.max(np.abs(lam))) < np.inf:
                raise ValueError(f"lambdas norm must be finite and > 0, got {top}")
            # Dividing by a power of 2 near the largest entry is exact: the norm
            # can then neither overflow nor underflow, and lam / norm keeps the
            # bits it has when the unscaled norm does neither.
            lam = np.ldexp(lam, -np.frexp(top)[1])
            lam = lam / np.linalg.norm(lam)
        elif cfg.d < 2:
            raise ValueError(f"dimension d must be >= 2, got {cfg.d}")
        else:
            lam = np.full(cfg.d, 1 / np.sqrt(cfg.d))
        psi = qudit_schmidt_state(lam)
        return psi, parse_qudit_settings(cfg.settings or "Z,X", psi.dA), {}
    psi, tail = nopa_truncated(cfg.r, cfg.d)
    return psi, parse_qudit_settings(cfg.settings or "Z,X", cfg.d), {"truncation_weight": tail}


_BATCH_ENTRIES = 1 << 18  # entries per batch of paradox states: 4 MB of complex


def _states_per_chunk(settings, dA: int, dB: int) -> int:
    """How many dA x dB states a batch holds under settings: as many as keep
    their factors (rows x dB entries, for rows = k dA conditional states)
    and Gram matrices (rows^2) within _BATCH_ENTRIES entries, at least one."""
    rows = len(settings) * dA
    return max(1, _BATCH_ENTRIES // max(1, rows * (dB + rows)))


def _paradox_runs(configs) -> list:
    """(ReportDocument, exit code) of each paradox-* config, in order.

    Consecutive configs that share their settings, dims and tolerances run
    as one PureStates batch of at most _states_per_chunk states, and a
    batch's reports are built before the next batch runs, so memory stays
    that of one batch (pure_state_paradox runs each batch whole). A point's
    no_signalling_deviation check is its certificate's, and each point's
    duration_s is an equal share of the batch's time. A config or
    input that raises does so after the batches before it have run, so the
    first failing point decides the error. The error of a point that shares
    its key with a neighbouring config names the point's index in configs.
    """
    runs, batch = [], []  # batch: (key, cfg, state, extra) of each pending config
    t0, last_key = time.perf_counter(), None

    def flush(next_key=None):
        nonlocal t0, last_key
        entries, batch[:] = batch[:], []
        if not entries:
            return
        settings, _, _, tol = key = entries[0][0]
        try:
            certs = pure_state_paradox(PureStates.of(*(psi for _, _, psi, _ in entries)), settings, tol)
        except DegenerateSettingGeometryError as err:
            if err.position is None and key not in (last_key, next_key):
                raise  # the point runs alone
            raise DegenerateSettingGeometryError(err.closest, err.distance, len(runs) + (err.position or 0)) from None
        last_key = key
        share = (time.perf_counter() - t0) / len(entries)
        for (_, cfg, _, extra), cert in zip(entries, certs):
            checks = _assemblage_checks(cert.no_signalling_deviation) if cert.applicable else {}
            doc = _document(cfg, {**cert.to_json(), **extra}, checks, share)
            runs.append((doc, _certificate_exit(cert, tol)))
        t0 = time.perf_counter()

    try:
        for cfg in configs:
            psi, settings, extra = _paradox_input(cfg)
            key = (settings, psi.dA, psi.dB, cfg.tolerances)
            if batch and (key != batch[0][0] or len(batch) == _states_per_chunk(settings, psi.dA, psi.dB)):
                flush(key)
            batch.append((key, cfg, psi, extra))
    finally:
        flush()
    return runs


def run(cfg: RunConfig):
    """Execute one scenario. Returns (ReportDocument, exit code)."""
    t0 = time.perf_counter()
    if cfg.scenario.startswith("paradox-"):
        return _paradox_runs([cfg])[0]
    if cfg.scenario == "sweep":
        return _run_sweep(cfg, t0)
    tol = cfg.tolerances
    code = EXIT_OK

    if cfg.scenario == "separable-lhs":
        beta = np.array([np.cos(cfg.beta_angle), np.sin(cfg.beta_angle)])
        alphas = [float(x) for x in cfg.alphas.split(",")]
        settings = [angle_projectors(al) for al in alphas]
        psi = separable_state(beta)
        model = separable_lhs_model(psi, settings, tol)
        asm = conditional_states(psi, settings, (2, 2), tol)
        code, dev = _model_exit(model, settings, asm, tol)
        result = {"model": model.to_json(), "reconstruction_deviation": dev}
        checks = _assemblage_checks(no_signalling_check(asm))

    elif cfg.scenario == "feasibility":
        settings = parse_qubit_settings(cfg.settings or "z,x")
        psi = theta_state(cfg.theta)
        asm = conditional_states(psi, settings, (2, 2), tol)
        outcome = lhs_feasibility_lp(asm, tol=tol)
        result = outcome.to_json()
        checks = _assemblage_checks(no_signalling_check(asm))
        if outcome.feasible:
            code, _ = _model_exit(outcome.model, settings, asm, tol)

    elif cfg.scenario == "ghz":
        exp = ghz_operator_expectations(ghz_state())
        count, witness = ghz_lhv_bruteforce()
        result = {
            "expectations": list(exp.values),
            "eigenstate_residuals": list(exp.eigenstate_residuals),
            "satisfying_assignments": count,
            "witness_product": witness,
        }
        checks = {"max_eigenstate_residual": max(exp.eigenstate_residuals)}
        ok = (
            all(abs(v - e) <= tol.eig for v, e in zip(exp.values, GHZ_TARGETS))
            and max(exp.eigenstate_residuals) <= tol.eig
            and count == 0
        )
        code = EXIT_OK if ok else EXIT_NUMERICAL

    else:  # pragma: no cover - guarded by RunConfig
        raise ValueError(f"unknown scenario {cfg.scenario!r}")

    return _document(cfg, result, checks, time.perf_counter() - t0), code


# The scenario that each point of a sweep over the key runs.
_SWEEP_SCENARIOS = {"theta": "paradox-qubit", "d": "paradox-qudit", "r": "paradox-nopa", "k": "paradox-qubit"}


def _grid_values(cfg: RunConfig):
    if cfg.values:
        return [float(x) for x in cfg.values.split(",")]
    if cfg.linspace:
        try:
            lo, hi, num = cfg.linspace.split(":")
            if (num := int(num)) < 0:
                raise ValueError
            return list(np.linspace(float(lo), float(hi), num))
        except ValueError:
            raise ValueError(f"--linspace takes the form lo:hi:num, num an integer >= 0; got {cfg.linspace!r}") from None
    raise ValueError("sweep needs --values or --linspace")


def _sweep_point_config(cfg: RunConfig, value: float) -> RunConfig:
    """The config of the sweep point at value. Only the swept value is
    converted: a d or k must be finite and is rounded to an int. A theta,
    r or d point runs cfg.settings, which a theta point defaults to z,x."""
    if cfg.param not in _SWEEP_SCENARIOS:
        raise ValueError(f"sweep param must be one of {sorted(_SWEEP_SCENARIOS)}, got {cfg.param!r}")
    if cfg.param == "theta":
        point = {"theta": value, "settings": cfg.settings or "z,x"}
    elif cfg.param == "r":
        point = {"r": value, "d": cfg.d, "settings": cfg.settings}
    elif not np.isfinite(value):
        raise ValueError(f"sweep {cfg.param} must be finite, got {value}")
    elif cfg.param == "d":
        point = {"d": int(round(value)), "settings": cfg.settings}
    else:
        k = int(round(value))
        point = {"k": k, "theta": cfg.theta, "settings": _k_settings(k)}
    return RunConfig(_SWEEP_SCENARIOS[cfg.param], format=cfg.format, tolerances=cfg.tolerances, **point)


def _k_settings(k: int) -> str:
    """k distinct Bloch settings in the x-z plane, as a settings spec."""
    if k < 2:
        raise ValueError(f"need at least 2 settings, got {k}")
    angles = [i * np.pi / (2 * k) for i in range(k)]
    return ",".join(f"bloch:{np.sin(2*al):.12g}:0:{np.cos(2*al):.12g}" for al in angles)


def _run_sweep(cfg: RunConfig, t0: float):
    values = _grid_values(cfg)
    if not values:
        raise ValueError("sweep grid is empty")
    points = _paradox_runs(_sweep_point_config(cfg, value) for value in values)
    reports = [vars(doc) for doc, _ in points]
    worst = max(code for _, code in points)
    magnitudes = [r["result"]["contradiction_magnitude"] for r in reports if r["result"].get("applicable")]
    ns_devs = [r["checks"]["no_signalling_deviation"] for r in reports if "no_signalling_deviation" in r["checks"]]
    summary = {
        "points": len(values),
        "min_contradiction_magnitude": min(magnitudes) if magnitudes else None,
        "max_contradiction_magnitude": max(magnitudes) if magnitudes else None,
        "max_no_signalling_deviation": max(ns_devs) if ns_devs else None,
    }
    result = {"reports": reports, "summary": summary}
    return _document(cfg, result, {"worst_exit_code": worst}, time.perf_counter() - t0), worst
