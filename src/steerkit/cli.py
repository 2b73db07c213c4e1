"""Command-line entry point.

Usage: ``steerkit SCENARIO [flags]``. Each flag is a field of RunConfig
or, as ``--tol-<name>``, of Tolerances. All flags can also come from a
``key=value`` config file via ``--config``, its keys the flag names with
``_`` for ``-``; explicit flags win.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields

from .linalg import Tolerances
from .report import (
    EXIT_OK,
    EXIT_PRECONDITION,
    SCENARIOS,
    ReportDocument,
    RunConfig,
    run,
)


def _run_inputs() -> dict:
    """Flag name -> (type, add_argument extras) of every run input.

    RunConfig's fields with a plain default are inputs under their own
    names (scenario has none, and tolerances come as one input per
    Tolerances field, named tol_<field>). Each type is the type of the
    field's default; the extras are the field's metadata.
    """
    inputs = {f.name: (type(f.default), f.metadata) for f in fields(RunConfig) if f.default is not MISSING}
    inputs.update((f"tol_{f.name}", (type(f.default), f.metadata)) for f in fields(Tolerances))
    return inputs


_INPUTS = _run_inputs()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steerkit",
        description="Run steering-paradox scenarios and emit certificates.",
    )
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", default="", help="key=value file; flags override it")
    for name, (kind, extras) in _INPUTS.items():
        parser.add_argument(f"--{name.replace('_', '-')}", type=kind, default=None, dest=name, **extras)
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


def make_config(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of parsed flags over the --config file's values, the
    file's values converted to the types of the flags."""
    values = {}
    if args.config:
        for key, val in _read_config_file(args.config).items():
            if key not in _INPUTS:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = _INPUTS[key][0](val)
    for key in _INPUTS:
        val = getattr(args, key)
        if val is not None:
            values[key] = val
    tol = {key[len("tol_") :]: values.pop(key) for key in list(values) if key.startswith("tol_")}
    return RunConfig(scenario=args.scenario, tolerances=Tolerances(**tol), **values)


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
        doc, code = run(cfg)
        _emit(doc, cfg)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    return code


if __name__ == "__main__":
    sys.exit(main())
