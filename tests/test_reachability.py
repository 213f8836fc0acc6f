"""Every top-level function and class under src/ is reachable from the
command line or the benchmark, or is on the acceptance list with the reason
it stays.

The walk starts at ``cli.main`` and at the module bodies that importing the
CLI runs, and follows every name a reached definition reads, through the
package's ``from .module import name`` imports.  A class counts as a whole:
reaching it reaches all of its methods.  New code that no command reaches
fails here; the list below may only shrink."""

import ast
from pathlib import Path

from test_benchmark_names import TRACER, _workload_imports

SRC = Path(__file__).resolve().parent.parent / "src" / "wielandt_lab"

# Criteria 4 and 9 of tests/test_acceptance.py call these directly (what
# criterion 6 calls is reachable from the CLI).
ACCEPTANCE_API = {
    "bounds.lemma_block_case": "criterion 4 draws the block-equivalence cases",
    "bounds.gen_square_order_pair": "criterion 4 draws the square-order pairs",
    "bounds.gen_psd_pair": "criterion 4 draws the anticommutator pairs",
    "bounds.check_lemma_block_equivalence": "criterion 4's one-trial block check",
    "bounds.check_lemma_square_order": "criterion 4's one-trial square-order check",
    "bounds.check_fact_norm_anticommutator": "criterion 4's one-trial anticommutator check",
    "bounds._one": "the one-seed block behind criterion 4's samplers",
    "matcore.mat_pow": "criterion 9's power round-trips",
}


def _benchmark_names() -> set:
    """The package names perfbench/ traces or imports, as module.name."""
    names = {f"{module.split('.')[-1]}.{attr}" for module, attr, _ in TRACER["_FUNCTIONS"]}
    names |= {f"maps.{cls}" for cls in TRACER["_APPLY_CLASSES"]}
    names |= {f"{module.split('.')[-1]}.{attr}" for module, attr in _workload_imports()}
    return names


def _parse_package(src: Path):
    """(definitions, imports, bodies) per module of `src`: the top-level
    function and class nodes by name, the names bound by
    ``from .module import name`` as (module, name), and the other top-level
    statements."""
    defs, imports, bodies = {}, {}, {}
    for path in sorted(src.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        defs[module], imports[module], bodies[module] = {}, {}, []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[module][node.name] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    imports[module][alias.asname or alias.name] = (node.module, alias.name)
            else:
                bodies[module].append(node)
    return defs, imports, bodies


def unreachable(src: Path = SRC) -> set:
    """module.name of every top-level definition of the package at `src`
    that the walk from cli.main does not reach."""
    defs, imports, bodies = _parse_package(src)

    def resolve(module, name):
        while name not in defs[module]:
            if name not in imports[module]:
                return None
            module, name = imports[module][name]
        return module, name

    seen_modules, reached = set(), set()
    stack = [("cli", None), ("cli", "main")]
    while stack:
        module, name = stack.pop()
        if name is None:  # a module body, run on import
            if module in seen_modules:
                continue
            seen_modules.add(module)
            nodes = bodies[module]
        else:
            if (module, name) in reached:
                continue
            reached.add((module, name))
            nodes = [defs[module][name]]
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    target = resolve(module, sub.id)
                    if target is not None:
                        stack += [(target[0], None), target]
    return {f"{module}.{name}" for module in defs for name in defs[module]
            if (module, name) not in reached}


def test_only_listed_definitions_are_unreachable():
    assert unreachable() - _benchmark_names() == set(ACCEPTANCE_API)


def test_walk_follows_imports_and_flags_dead_code(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from .lib import used\n\ndef main():\n    return used()\n\n"
        "if __name__ == '__main__':\n    main()\n")
    (tmp_path / "lib.py").write_text(
        "def used():\n    return Helper().run()\n\n"
        "class Helper:\n    def run(self):\n        return _private()\n\n"
        "def _private():\n    return 1\n\ndef dead():\n    return used()\n")
    assert unreachable(tmp_path) == {"lib.dead"}
