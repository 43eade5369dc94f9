"""Built-in surfaces and group presets, shipped as JSON data files."""

from __future__ import annotations

import json
from importlib import resources

from .errors import NotFound
from .surface import TranslationSurface, load_surface

_SURFACES = ("octagon", "double_pentagon", "lshape")


def _data(name: str) -> dict:
    path = resources.files("flatbundle") / "data" / f"{name}.json"
    with path.open() as f:
        return json.load(f)


def surface_names() -> tuple[str, ...]:
    return _SURFACES


def _array(value, shape: tuple, kind: type, what: str) -> list:
    """``value`` checked as nested lists of the lengths in ``shape`` (None:
    any length) of finite numbers (``kind`` float) or of integers (int)."""
    if shape:
        n = shape[0]
        if not isinstance(value, (list, tuple)) or n not in (None, len(value)):
            size = "a list" if n is None else f"a list of {n}"
            raise ValueError(f"{what} must be {size}, not {value!r:.40}")
        return [_array(v, shape[1:], kind, f"{what}[{k}]") for k, v in enumerate(value)]
    ok = isinstance(value, int if kind is int else (int, float))
    # the range test also rejects NaN, infinities and ints beyond a float
    if isinstance(value, bool) or not ok or not -1e308 < value < 1e308:
        noun = "an integer" if kind is int else "a finite number"
        raise ValueError(f"{what} must be {noun}, not {value!r:.40}")
    return value


def parse_surface(d: dict, name: str) -> TranslationSurface:
    """A surface from its JSON form, as in the shipped data files.

    ``polygons`` lists vertex lists of [x, y] pairs and ``gluings`` lists
    [[polygon, edge], [polygon, edge]] pairs; another shape raises
    ValueError.  A missing key reads as empty, so ``load_surface`` reports it
    as a NonPlanarPolygon or GluingMismatch.
    """
    if not isinstance(d, dict):
        raise ValueError(f"surface {name!r} must be a JSON object")
    polygons = [
        [complex(x, y) for x, y in poly]
        for poly in _array(d.get("polygons", []), (None, None, 2), float, "polygons")
    ]
    gluings = {}
    for (p, e), (q, f) in _array(d.get("gluings", []), (None, 2, 2), int, "gluings"):
        gluings[(p, e)] = (q, f)
        gluings[(q, f)] = (p, e)
    return load_surface(polygons, gluings, name=name)


def load_catalog_surface(name: str) -> TranslationSurface:
    if name not in _SURFACES:
        raise NotFound(f"unknown surface {name!r}; try one of {_SURFACES}")
    return parse_surface(_data(name), name)


def group_names() -> tuple[str, ...]:
    return tuple(sorted(_data("groups")))


def parse_group(d: dict, name: str) -> dict:
    """A group preset from its JSON form: a matrix basis and words over it.

    The basis is the document's ``generators`` (2x2 numbers, as row tuples)
    or, without them, the ``basis`` of its catalog ``surface``.  ``words``
    lists one word per group generator in letters +-1..len(basis) (i+1 is
    basis[i], negative its inverse) and defaults to one letter per matrix.
    ``name`` is used when the preset does not name itself.  Another shape
    raises ValueError; a missing basis reads as none, which the group build
    rejects.
    """
    if not isinstance(d, dict):
        raise ValueError(f"group {name!r} must be a JSON object")
    g = dict(d)
    if "generators" in g or g.get("surface") not in _SURFACES:
        key, matrices = "generators", g.pop("generators", [])
    else:
        key, matrices = "basis", _data(g["surface"])["basis"]
    basis = _array(matrices, (None, 2, 2), float, key)
    g["basis"] = [tuple(tuple(row) for row in m) for m in basis]
    default = [[k + 1] for k in range(len(basis))]
    g["words"] = _array(g.get("words", default), (None, None), int, "words")
    if any(not 1 <= abs(l) <= len(basis) for w in g["words"] for l in w):
        raise ValueError(f"words letters must be +-1..{len(basis)}")
    g.setdefault("name", name)
    return g


def load_group_preset(name: str) -> dict:
    """A group preset: base surface name, kind, basis matrices and words."""
    groups = _data("groups")
    if name not in groups:
        raise NotFound(f"unknown group {name!r}; try one of {tuple(sorted(groups))}")
    return parse_group(groups[name], name)


def describe() -> dict:
    """Catalog listing used by the command line interface."""
    out = {"surfaces": {}, "groups": {}}
    for s in _SURFACES:
        d = _data(s)
        surf = load_catalog_surface(s)
        out["surfaces"][s] = {
            "description": d["description"],
            "genus": surf.genus,
            "area": surf.area,
            "cone_angles": [cc.angle for cc in surf.cone_classes],
        }
    for gname, g in _data("groups").items():
        out["groups"][gname] = {
            "description": g["description"],
            "surface": g["surface"],
            "kind": g["kind"],
            "words": g["words"],
        }
    return out
