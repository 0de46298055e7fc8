"""Guard against model-layer code that nothing runs.

The kernel inlines the ``repro.pipeline`` and ``repro.mem`` behaviour
into the stage sources, and the frozen reference carries its own copies,
so a helper defined there can quietly lose its last caller and live on
only in its unit tests.  Every public function and method defined under
those two packages must be referenced somewhere in ``src/`` outside its
own definition; delete what fails this, or give it a caller.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
GUARDED = ("pipeline", "mem")


def _references(tree):
    """``(name, line)`` for every name, attribute and import in *tree*."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def test_every_public_model_function_has_a_caller():
    trees = {path: ast.parse(path.read_text())
             for path in sorted(SRC.rglob("*.py"))}
    refs = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    unused = []
    for path, tree in trees.items():
        if path.relative_to(SRC).parts[0] not in GUARDED:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue  # private helpers and dunders
            outside = [
                (p, line) for p, line in refs.get(node.name, ())
                if p != path or not node.lineno <= line <= node.end_lineno]
            if not outside:
                unused.append(f"{path.relative_to(SRC)}:{node.lineno} "
                              f"{node.name}")
    assert unused == [], "no caller in src/: " + ", ".join(unused)
