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


def parse_surface(d: dict, name: str) -> TranslationSurface:
    """A surface from its JSON form, as in the shipped data files.

    ``polygons`` lists vertex lists of [x, y] pairs and ``gluings`` lists
    [[polygon, edge], [polygon, edge]] pairs.  A missing key reads as empty,
    so ``load_surface`` reports it as a NonPlanarPolygon or GluingMismatch.
    """
    polygons = [
        [complex(x, y) for x, y in poly] for poly in d.get("polygons", [])
    ]
    pairs = (tuple(map(tuple, pair)) for pair in d.get("gluings", []))
    gluings = {}
    for (p, e), (q, f) in pairs:
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
    """A group preset from its JSON form: generator matrices as row tuples.

    ``name`` is used when the preset does not name itself; missing
    ``generators`` read as none, which the group build rejects.
    """
    g = dict(d)
    g["generators"] = [
        tuple(tuple(row) for row in m) for m in g.get("generators", [])
    ]
    g.setdefault("name", name)
    return g


def load_group_preset(name: str) -> dict:
    """A group preset: base surface name, kind, and generator matrices."""
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
            "generators": g["generators"],
        }
    return out
