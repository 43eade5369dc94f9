"""Every function, class and method of the package is reachable from
``flatbundle.cli.main``, every module-level constant is read somewhere, and
every record field is read as an attribute somewhere.

The call graph is name-level: a definition reaches every definition whose
name it mentions, as a bare name or as an attribute.  A reached class
reaches what its body mentions outside its methods, and its dunder methods,
which Python calls implicitly.  Module-level statements run at import, so
what they mention is reached too.
"""

import ast
from pathlib import Path

import flatbundle

# Live only in the tests: acceptance 05 checks balance_point with
# Geodesic.distance_to, and the geodesic certificates compare
# FlatGeodesic.development with the chain's.
ALLOWED = {
    "hyperbolic.balance_point",
    "hyperbolic.ideal_incenter",
    "hyperbolic._mobius_three_points",
    "hyperbolic.Geodesic.distance_to",
    "surface.FlatGeodesic.development",
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


def _is_record(node: ast.ClassDef) -> bool:
    names = _mentions(node.bases + node.decorator_list)
    return "dataclass" in names or "NamedTuple" in names


def test_every_record_field_is_read():
    # name-level, like the call graph: a field counts as read when any
    # attribute of that name is loaded anywhere in the package
    fields, read = set(), set()
    for mod, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_record(node):
                fields |= {
                    (f"{mod}.{node.name}.{st.target.id}", st.target.id)
                    for st in node.body
                    if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)
                }
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = {qual for qual, name in fields if name not in read}
    assert sorted(unread - FIELDS_ALLOWED) == [], "record field never read"
    assert sorted(FIELDS_ALLOWED - unread) == [], "allowlisted but read or gone"
