"""The names the benchmark harness (perfbench/) traces and imports must still
resolve in the package; otherwise a rename would only show up as failed
benchmark operations.  perfbench is read here, never modified."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracer() -> dict:
    """tracer.py's globals, executed from source so nothing is written."""
    path = PERFBENCH / "tracer.py"
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


def _workload_imports():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    return sorted(
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("wielandt_lab")
        for alias in node.names
    )


TRACER = _load_tracer()


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _ in TRACER["_FUNCTIONS"]])
def test_traced_functions_resolve(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("cls_name", TRACER["_APPLY_CLASSES"])
def test_traced_map_classes_own_apply(cls_name):
    cls = getattr(importlib.import_module("wielandt_lab.maps"), cls_name)
    assert "apply" in cls.__dict__


def test_workload_imports_resolve():
    names = _workload_imports()
    assert names == [
        ("wielandt_lab.instances", "instance_from_json"),
        ("wielandt_lab.search", "conjecture_ratio"),
    ]
    for module, attr in names:
        assert callable(getattr(importlib.import_module(module), attr))
