"""README.md names code that exists: every backticked ``module.name`` outside
fenced code blocks is an attribute of ``wielandt_lab.<module>``."""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import wielandt_lab

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(info.name for info in pkgutil.iter_modules(wielandt_lab.__path__))
# perfbench's per-layer metrics are named after the code they time
# (cli.fanout.efficiency) but are not attributes
METRICS = {entry["name"] for entry in
           json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
FILE_SUFFIXES = (".py", ".csv")


def _references(text: str) -> list:
    """Every ``module.name`` (a module of wielandt_lab, then one or more
    dotted names) inside a backticked span of `text`, fenced blocks left
    out; a span may run over a line break."""
    text = re.sub(r"^ *```.*?^ *```", "", text, flags=re.S | re.M)
    pattern = re.compile(rf"(?<![\w.])(?:{'|'.join(MODULES)})(?:\.\w+)+")
    return [name for span in re.findall(r"`([^`]+)`", text) for name in pattern.findall(span)
            if not name.endswith(FILE_SUFFIXES) and name not in METRICS]


def _resolves(name: str) -> bool:
    module, *path = name.split(".")
    target = importlib.import_module(f"wielandt_lab.{module}")
    for attribute in path:
        if not hasattr(target, attribute):
            return False
        target = getattr(target, attribute)
    return True


def test_readme_names_existing_code():
    references = _references((ROOT / "README.md").read_text(encoding="utf-8"))
    assert references
    assert [name for name in references if not _resolves(name)] == []


def test_references_are_found_across_line_breaks_and_outside_fences():
    text = ("`(family, trials,\ncli.Missing)` and `sampling.fan_out`, `cli.py`,\n"
            "`cli.fanout.efficiency`\n```sh\n`cli.InFence`\n```\n")
    assert _references(text) == ["cli.Missing", "sampling.fan_out"]
