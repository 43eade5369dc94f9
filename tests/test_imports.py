"""Every name imported in ``src/flatbundle``, ``tests`` and ``perfbench`` is
used there, ``src/flatbundle`` keeps no memo caches, and only its
``cli.py`` imports ``gc``.

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


MEMO_CACHES = {"lru_cache", "cache"}


def _memo_caches(path: Path) -> list:
    """Each mention of ``functools.lru_cache`` or ``functools.cache``: as a
    decorator, called, or under any name it was imported as."""
    tree = ast.parse(path.read_text())
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names if a.name in MEMO_CACHES}
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in names)
        or (
            isinstance(node, ast.Attribute)
            and node.attr in MEMO_CACHES
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        )
    ]


def test_package_keeps_no_memo_caches():
    # a process-wide memo hides repeated work from the per-call counts and
    # makes a run's time depend on what ran before it in the process
    found = [c for path in sorted(ROOTS[0].glob("*.py")) for c in _memo_caches(path)]
    assert found == []


def _imports_gc(path: Path) -> bool:
    return any(
        (isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "gc")
        for node in ast.walk(ast.parse(path.read_text()))
    )


def test_only_the_cli_imports_gc():
    # the collector's state belongs to the whole process: only the command
    # line entry point, whose process exits next, may change it
    importers = [path.name for path in sorted(ROOTS[0].glob("*.py")) if _imports_gc(path)]
    assert importers == ["cli.py"]
