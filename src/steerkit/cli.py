"""Command-line entry point.

Usage: ``steerkit SCENARIO [flags]``. All flags can also come from a
``key=value`` config file via ``--config``; explicit flags win. The env
var STEERKIT_TOLERANCE_LP overrides the LP tolerance.
"""

from __future__ import annotations

import argparse
import os
import sys

from .linalg import DEFAULT_TOL, Tolerances
from .report import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PRECONDITION,
    SCENARIOS,
    ReportDocument,
    RunConfig,
    run,
)
from .steering import ParadoxInvariantError

_FLOAT_FLAGS = ("theta", "r", "beta_angle")
_INT_FLAGS = ("d", "k")
_STR_FLAGS = ("settings", "lambdas", "alphas", "param", "values", "linspace", "output", "format")
_TOL_FLAGS = ("tol_herm", "tol_eig", "tol_state_eq", "tol_rank1", "tol_lp")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steerkit",
        description="Run steering-paradox scenarios and emit certificates.",
    )
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", default="", help="key=value file; flags override it")
    parser.add_argument("--theta", type=float, default=None)
    parser.add_argument("--d", type=int, default=None)
    parser.add_argument("--r", type=float, default=None)
    parser.add_argument("--k", type=int, default=None)
    parser.add_argument("--beta-angle", type=float, default=None, dest="beta_angle")
    parser.add_argument("--settings", default=None)
    parser.add_argument("--lambdas", default=None, help="comma-separated Schmidt coefficients")
    parser.add_argument("--alphas", default=None, help="comma-separated setting angles")
    parser.add_argument("--param", default=None, help="sweep parameter: theta, d, r or k")
    parser.add_argument("--values", default=None, help="comma-separated sweep grid")
    parser.add_argument("--linspace", default=None, help="sweep grid as lo:hi:num")
    parser.add_argument("--output", default=None, help="write the report here instead of stdout")
    parser.add_argument("--format", default=None, choices=("json", "text"))
    for name in _TOL_FLAGS:
        parser.add_argument(f"--{name.replace('_', '-')}", type=float, default=None, dest=name)
    return parser


# Built once at import: parse_args leaves the parser unchanged.
_PARSER = build_parser()


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (expected key=value): {line!r}")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _coerce(key: str, val: str):
    if key in _FLOAT_FLAGS or key in _TOL_FLAGS:
        return float(val)
    if key in _INT_FLAGS:
        return int(val)
    return val


def make_config(args: argparse.Namespace) -> RunConfig:
    merged = {}
    if args.config:
        for key, val in _read_config_file(args.config).items():
            if key == "scenario":
                continue
            merged[key] = _coerce(key, val)
    for key in _FLOAT_FLAGS + _INT_FLAGS + _STR_FLAGS + _TOL_FLAGS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val

    tol_kwargs = {
        key: merged.pop(f"tol_{key}", getattr(DEFAULT_TOL, key))
        for key in ("herm", "eig", "state_eq", "rank1", "lp")
    }
    env_lp = os.environ.get("STEERKIT_TOLERANCE_LP")
    if env_lp:
        tol_kwargs["lp"] = float(env_lp)

    cfg = RunConfig(scenario=args.scenario, tolerances=Tolerances(**tol_kwargs))
    for key, val in merged.items():
        if not hasattr(cfg, key):
            raise ValueError(f"unknown config key {key!r}")
        setattr(cfg, key, val)
    return cfg


def _emit(doc: ReportDocument, cfg: RunConfig) -> None:
    text = doc.render(cfg.format)
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse has printed help (code 0) or a usage error
        return EXIT_PRECONDITION if exc.code else EXIT_OK
    try:
        cfg = make_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    try:
        doc, code = run(cfg)
        _emit(doc, cfg)
    except ParadoxInvariantError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    return code


if __name__ == "__main__":
    sys.exit(main())
