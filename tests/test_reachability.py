"""Every function, class and method of the package is reachable from
``flatbundle.cli.main``, every module-level constant is read somewhere, and
while ``flatbundle run`` works every method of a package class runs and
every record field is read on its own class.

The call graph is name-level: a definition reaches every definition whose
name it mentions, as a bare name or as an attribute.  A reached class
reaches what its body mentions outside its methods, and its dunder methods,
which Python calls implicitly.  Module-level statements run at import, so
what they mention is reached too.  A method is only reached by name, so
the watched runs also record which methods are really called.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import flatbundle
from flatbundle import cli

# Live only in the tests: acceptance 05 checks balance_point with
# Geodesic.distance_to, and the geodesic certificates compare
# FlatGeodesic.development with the chain's.
ALLOWED = {
    "hyperbolic.balance_point",
    "hyperbolic.ideal_incenter",
    "hyperbolic.Geodesic.distance_to",
    "surface.FlatGeodesic.development",
}

# Methods that only the tests call: acceptance 05 checks balance_point with
# Geodesic.distance_to, the geodesic certificates read FlatGeodesic's
# development and length, and the hull tests ask ConvexRegion.contains.
CALLS_ALLOWED = {
    "hyperbolic.Geodesic.distance_to",
    "hyperbolic.ConvexRegion.contains",
    "surface.FlatGeodesic.development",
    "surface.FlatGeodesic.length",
}

# Record fields read only by the tests, or kept for the slimness-at-scale
# item of ROADMAP.md: cylinder sides by boundary circle, the spines of a
# decomposition, the fiber of a horizontal piece, the indices a structure
# check rejects, the length level of a horoball, and the generators of the
# group (the equivariance tests act by them; the package reads the words).
FIELDS_ALLOWED = {
    "cylinders.Cylinder.boundary_low",
    "cylinders.Cylinder.boundary_high",
    "cylinders.CylinderDecomposition.spines",
    "paths.HorizontalPiece.fiber",
    "paths.StructureReport.offending",
    "veech.HoroRegion.length_level",
    "veech.VeechGroupData.generators",
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _mentions(nodes) -> set:
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def _modules():
    for path in sorted(Path(flatbundle.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text())


def _call_graph():
    """(mentions of each definition, mentions of module-level code)."""
    edges, roots = {}, set()
    for mod, tree in _modules():
        for node in tree.body:
            if isinstance(node, _FUNCS):
                edges[f"{mod}.{node.name}"] = _mentions([node])
            elif isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, _FUNCS)]
                rest = [m for m in node.body if not isinstance(m, _FUNCS)]
                edges[f"{mod}.{node.name}"] = _mentions(
                    node.bases + node.decorator_list + rest
                ) | {m.name for m in methods if m.name.startswith("__")}
                for m in methods:
                    edges[f"{mod}.{node.name}.{m.name}"] = _mentions([m])
            else:
                roots |= _mentions([node])
    return edges, roots


def _unreached() -> set:
    edges, roots = _call_graph()
    by_name = {}
    for qual in edges:
        by_name.setdefault(qual.rsplit(".", 1)[1], set()).add(qual)
    seen = {"cli.main"}
    todo = ["cli.main"] + [q for n in roots for q in by_name.get(n, ())]
    while todo:
        qual = todo.pop()
        seen.add(qual)
        for name in edges[qual]:
            todo += [q for q in by_name.get(name, ()) if q not in seen]
    return set(edges) - seen


def test_every_definition_is_reached_from_main():
    unreached = _unreached()
    assert sorted(unreached - ALLOWED) == [], "no caller in flatbundle run"
    assert sorted(ALLOWED - unreached) == [], "allowlisted but reached or gone"


def test_every_module_constant_is_read():
    assigned, read = set(), set()
    for mod, tree in _modules():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [
                getattr(node, "target", None)
            ]
            assigned |= {
                (mod, t.id) for t in targets if isinstance(t, ast.Name)
            }
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                read.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                read.add(sub.attr)
    unread = {f"{mod}.{name}" for mod, name in assigned if name not in read}
    assert sorted(unread - {"__init__.__version__"}) == [], "assigned, never read"


PACKAGE_DIR = str(Path(flatbundle.__file__).parent)
# presets whose runs the field check watches (cutoff 2.5, seed 1)
WATCHED_RUNS = (("lshape", "lshape_lattice"), ("octagon", "octagon_cusped"))


def _records() -> dict:
    """{record class: its field names} for the package's NamedTuples and
    classes with ``__slots__`` (``flatbundle run`` imports no dataclasses)."""
    records = {}
    for mod, _tree in _modules():
        module = importlib.import_module(f"flatbundle.{mod}")
        for obj in vars(module).values():
            if not isinstance(obj, type) or obj.__module__ != module.__name__:
                continue
            if issubclass(obj, tuple) and hasattr(obj, "_fields"):
                records[obj] = list(obj._fields)
            elif "__slots__" in vars(obj):
                records[obj] = list(obj.__slots__)
    return records


def _by_package() -> bool:
    """Was the caller of the calling hook a frame of a package module?"""
    return sys._getframe(2).f_code.co_filename.startswith(PACKAGE_DIR)


def _watch_reads(records: dict, unread: set) -> None:
    """Drop ``(class, field)`` from ``unread`` when package code reads it.

    A read is an attribute load on an instance of that very class, or, for
    a NamedTuple, iterating it (unpacking reads every field), made by a
    frame of a package module, so the methods ``NamedTuple`` generates do
    not count.
    """
    for cls, names in records.items():

        def getattribute(self, name, cls=cls, base=cls.__getattribute__):
            if (cls, name) in unread and _by_package():
                unread.discard((cls, name))
            return base(self, name)

        cls.__getattribute__ = getattribute
        if issubclass(cls, tuple):

            def iterate(self, cls=cls, names=names):
                if _by_package():
                    unread.difference_update((cls, n) for n in names)
                return tuple.__iter__(self)

            cls.__iter__ = iterate


def _methods() -> dict:
    """{code object: qualified name} of every non-dunder method, property
    getter, static method and class method defined in a package class."""
    methods = {}
    for mod, _tree in _modules():
        module = importlib.import_module(f"flatbundle.{mod}")
        for obj in vars(module).values():
            if not isinstance(obj, type) or obj.__module__ != module.__name__:
                continue
            for name, attr in vars(obj).items():
                func = attr.fget if isinstance(attr, property) else attr
                func = getattr(func, "__func__", func)  # static or class method
                code = getattr(func, "__code__", None)
                # NamedTuple's generated methods are compiled outside the package
                if name.startswith("__") or code is None or (
                    not code.co_filename.startswith(PACKAGE_DIR)
                ):
                    continue
                methods[code] = f"{mod}.{obj.__qualname__}.{name}"
    return methods


@pytest.fixture(scope="module")
def watched(tmp_path_factory):
    """(fields never read, methods never called) over the watched runs.

    A field counts as read only when package code reads it on an instance
    of its own class; a method counts as called when its code starts a
    frame, as the profile hook sees it.
    """
    records = _records()
    unread = {(cls, name) for cls, names in records.items() for name in names}
    methods = _methods()
    called = set()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code in methods:
            called.add(frame.f_code)

    _watch_reads(records, unread)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for surface, group in WATCHED_RUNS:
            cli.run_experiment(cli.ExperimentConfig(
                surface=surface, group=group, max_length=2.5, seed=1,
                out=str(tmp_path_factory.mktemp(group)),
            ))
    finally:
        sys.setprofile(previous)
        for cls in records:
            del cls.__getattribute__
            if issubclass(cls, tuple):
                del cls.__iter__
    fields = {f"{cls.__module__.split('.')[-1]}.{cls.__qualname__}.{name}"
              for cls, name in unread}
    return fields, {methods[code] for code in methods.keys() - called}


def test_every_record_field_is_read(watched):
    fields, _ = watched
    assert sorted(fields - FIELDS_ALLOWED) == [], "record field never read"
    assert sorted(FIELDS_ALLOWED - fields) == [], "allowlisted but read or gone"


def test_every_method_runs(watched):
    _, uncalled = watched
    assert sorted(uncalled - CALLS_ALLOWED) == [], "method never called"
    assert sorted(CALLS_ALLOWED - uncalled) == [], "allowlisted but called or gone"
