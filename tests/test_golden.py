"""Golden reports: ``steerkit`` CLI output for a fixed set of invocations.

Each case's report is stored under ``tests/golden/``. The test checks that
the exit code is unchanged and that the report matches the stored one,
ignoring every ``duration_s`` and allowing floats to differ by 1e-12.
Refactors must keep these reports; a deliberate change to the report
regenerates them with ``python tests/test_golden.py``.
"""

import contextlib
import io
import json
import math
import pathlib
import sys

import pytest

from steerkit.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
FLOAT_TOL = 1e-12

# (name, argv, exit code). Every scenario, every sweep parameter, d <= 7.
CASES = (
    ("paradox_qubit", ["paradox-qubit", "--theta", "0.7854", "--settings", "z,x"], 0),
    ("paradox_qubit_k3", ["paradox-qubit", "--theta", "0.3", "--settings", "z,x,angle:0.4"], 0),
    ("paradox_qubit_bloch", ["paradox-qubit", "--theta", "1.1", "--settings", "bloch:0.6:0:0.8,y"], 0),
    ("paradox_qubit_separable", ["paradox-qubit", "--theta", "0", "--settings", "z,x"], 1),
    ("paradox_qudit", ["paradox-qudit", "--d", "5"], 0),
    ("paradox_qudit_lambdas", ["paradox-qudit", "--lambdas", "0.6,0.3,0.2,0.1", "--settings", "Z,X"], 0),
    ("paradox_nopa", ["paradox-nopa", "--r", "1", "--d", "7"], 0),
    ("separable_lhs", ["separable-lhs", "--beta-angle", "0.5", "--alphas", "0.3,1.1"], 0),
    ("feasibility_entangled", ["feasibility", "--theta", "0.7854", "--settings", "z,x"], 0),
    ("feasibility_product", ["feasibility", "--theta", "0", "--settings", "z,x", "--tol-lp", "1e-7"], 0),
    ("ghz", ["ghz"], 0),
    ("sweep_theta", ["sweep", "--param", "theta", "--linspace", "0.1:1.4:5"], 0),
    ("sweep_k", ["sweep", "--param", "k", "--values", "2,3,4"], 0),
    ("sweep_d", ["sweep", "--param", "d", "--values", "2,3,5,7"], 0),
    ("sweep_r", ["sweep", "--param", "r", "--values", "0.5,1.0", "--d", "6"], 0),
    ("paradox_qudit_text", ["paradox-qudit", "--d", "4", "--format", "text"], 0),
)


def _path(name, argv):
    return GOLDEN / (name + (".txt" if "text" in argv else ".json"))


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _text_fields(text):
    """Text report as a {key: value} dict; values parsed as JSON when they
    are JSON (numbers, lists), kept as strings otherwise."""
    fields = {}
    for line in text.splitlines():
        key, value = line.split(": ", 1)
        try:
            fields[key] = json.loads(value)
        except ValueError:
            fields[key] = value
    return fields


def _assert_same(got, want, where="report"):
    if isinstance(want, dict):
        assert isinstance(got, dict), where
        keys = {k for k in want if not k.endswith("duration_s")}
        assert {k for k in got if not k.endswith("duration_s")} == keys, where
        for k in keys:
            _assert_same(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)), where
        assert math.isclose(got, want, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL), (where, got, want)
    else:
        assert got == want, where


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, argv, code):
    got_code, text = _run(argv)
    assert got_code == code
    want = _path(name, argv).read_text()
    if "text" in argv:
        _assert_same(_text_fields(text), _text_fields(want))
    else:
        _assert_same(json.loads(text), json.loads(want))


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "argv",
    [argv for _, argv, _ in CASES if "text" not in argv]
    + [["sweep", "--param", "theta", "--values", "0,0.5,1.5707963267948966"]],
    ids=[name for name, argv, _ in CASES if "text" not in argv] + ["sweep_theta_through_0"],
)
def test_reports_are_strict_json(argv):
    # An absent number is null: NaN and Infinity are not JSON.
    _, text = _run(argv)
    doc = json.loads(text, parse_constant=_not_json)
    for point in doc["result"].get("reports", [doc]):
        if point["result"].get("applicable") is False:
            assert point["result"]["contradiction_magnitude"] is None


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, code in CASES:
        got_code, text = _run(argv)
        if got_code != code:
            sys.exit(f"{name}: exit code {got_code}, expected {code}")
        _path(name, argv).write_text(text)
