"""Every name imported in ``src/flatbundle``, ``tests`` and ``perfbench`` is
used there.

A name counts as used when the module mentions it anywhere else, as a bare
name or as the root of an attribute chain.  ``from __future__`` imports are
directives, not names.
"""

import ast
from pathlib import Path

import flatbundle

TESTS = Path(__file__).parent
ROOTS = (Path(flatbundle.__file__).parent, TESTS, TESTS.parent / "perfbench")


def _unused(path: Path) -> list:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    unused = [u for root in ROOTS for path in sorted(root.glob("*.py")) for u in _unused(path)]
    assert unused == []
