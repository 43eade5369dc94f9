"""Every layer the benchmark gates on exists in ``flatbundle``.

``perfbench/run.py`` fails a traced run whose workload never calls one of
its expected layers, and ``perfbench/traced.py`` wraps the methods it names
in ``METHODS``.  Deleting or renaming one of them should fail here, not at
benchmark time.  The files are parsed, not imported or edited.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _assigned(tree, name):
    return next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    )


def _gated_names():
    run = ast.parse((PERFBENCH / "run.py").read_text())
    names = set(ast.literal_eval(_assigned(run, "COMMON_LAYERS")))
    for node in ast.walk(_assigned(run, "WORKLOADS")):
        # a workload's extra layers: COMMON_LAYERS + (...)
        if isinstance(node, ast.BinOp) and getattr(node.left, "id", None) == "COMMON_LAYERS":
            names |= set(ast.literal_eval(node.right))
    traced = ast.parse((PERFBENCH / "traced.py").read_text())
    names |= {".".join(m) for m in ast.literal_eval(_assigned(traced, "METHODS"))}
    return names


def _resolves(dotted):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"flatbundle.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return callable(obj) or isinstance(obj, property)


def test_gated_layers_exist():
    names = _gated_names()
    assert "cylinders.trace_direction" in names
    assert "hyperbolic.ConvexRegion.project" in names
    assert sorted(n for n in names if not _resolves(n)) == []
