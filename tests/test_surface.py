"""steerkit's public names, and the names the benchmark looks up.

``bench/tracing.py`` wraps library functions by module and attribute name,
so a deleted or renamed one would otherwise break only a traced benchmark
run. The benchmark's files are read here, never changed.
"""

import ast
import importlib
import importlib.util
import pathlib

import pytest

import steerkit

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = ("assemblage", "cli", "linalg", "measurements", "report", "simplex", "states", "steering")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"steerkit.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_package_exports_exist():
    tree = ast.parse((ROOT / "src" / "steerkit" / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    names = [alias.asname or alias.name for node in imports for alias in node.names]
    assert names and not [n for n in names if not hasattr(steerkit, n)]


def test_bench_targets_resolve():
    targets = load_tracing().TARGETS
    assert targets
    for module_name, attr, _, _ in targets:
        assert callable(resolve(module_name, attr)), f"{module_name}.{attr}"


def changed(owner, was: dict) -> list:
    """The attributes of owner that are not the objects recorded in was."""
    now = vars(owner)
    return sorted(set(now) ^ set(was) | {key for key in was if key in now and now[key] is not was[key]})


def test_tracer_uninstall_restores_every_attribute():
    tracing = load_tracing()
    owners = [steerkit] + [importlib.import_module(f"steerkit.{name}") for name in MODULES]
    owners += [resolve(m, attr.split(".")[0]) for m, attr, _, _ in tracing.TARGETS if "." in attr]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert any(changed(owner, was) for owner, was in zip(owners, before))
    finally:
        tracer.uninstall()
    for owner, was in zip(owners, before):
        assert not changed(owner, was), owner
