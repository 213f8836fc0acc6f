"""Every name a module under src/ imports is used in that module.  No linter
runs on this repository, so this stdlib check stands in for the unused-import
rule."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wielandt_lab"


def unused_imports(source: str) -> list:
    """The names bound by import statements that nothing else in `source`
    reads, ``from __future__`` imports excepted."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "import math\nimport os\nfrom numpy import array, zeros\nprint(os.sep, zeros)\n"
    assert unused_imports(source) == ["array", "math"]


def test_cli_import_leaves_the_process_pool_unloaded():
    # Runs below one full block per worker never start a pool, so a CLI
    # start-up should not pay for importing one.
    code = ("import sys, wielandt_lab.cli; "
            "print('multiprocessing' in sys.modules, 'concurrent.futures.process' in sys.modules)")
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False"


def test_cli_import_leaves_ctypeslib_unloaded():
    # Seeding writes generator states through the stdlib ctypes that numpy
    # already loads; numpy.ctypeslib would add to every CLI start-up.
    code = "import sys, wielandt_lab.cli; print('numpy.ctypeslib' in sys.modules)"
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
