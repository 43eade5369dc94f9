"""Cylinder decompositions of flow directions.

A direction is *periodic* when every straight trajectory leaving a cone point
in that direction (a separatrix) closes up into a saddle connection.  The
complement of those saddle connections is then a union of flat cylinders.
``trace_direction`` semi-decides this: it traces each outgoing separatrix
once and either assembles the decomposition or reports that one survived
the trace budget, which proves nothing about longer budgets.  A separatrix
keeps no route but its record's crossings, which place its pieces in the
polygons.  The heights of the vertices and separatrices, taken along the
left normal of the direction, cut each polygon into strips; the strips glued
across polygon edges make up the cylinders, and each strip spans its
cylinder's width.

A decomposition records its *spines* (connected components of the union of
boundary saddle connections) and, per cylinder, the boundary sides on each of
its two boundary circles; together they give the weighted dual graph, with
one vertex per spine and one edge per cylinder of the cylinder's width.
"""

from __future__ import annotations

import cmath
from bisect import bisect_right
from typing import NamedTuple

from .errors import NoClosureFound, NoCylinders
from .surface import (
    TOL_ANGLE,
    TOL_VERTEX,
    Corner,
    SaddleConnection,
    TranslationSurface,
    _connection,
    _edge_connection,
    _march,
    _UnionFind,
    ccw_angle,
    cross,
    fold_direction,
)

WIDTH_TOL = 1e-6
#: polygons a separatrix is marched through before it counts as open
SEPARATRIX_BUDGET = 100000


class Cylinder(NamedTuple):
    """A cylinder whose height coordinate t runs along the left normal of the
    direction, so it lies left of its t = 0 circle and right of the other."""

    circumference: float
    width: float
    sides: tuple[tuple[int, int], ...]  # (saddle index, +1 left / -1 right)
    boundary_low: tuple[tuple[int, int], ...]  # sides on the t = 0 circle
    boundary_high: tuple[tuple[int, int], ...]  # sides on the t = width circle


class CylinderDecomposition(NamedTuple):
    saddles: tuple[SaddleConnection, ...]
    cylinders: tuple[Cylinder, ...]
    spines: tuple[tuple[int, ...], ...]

    @property
    def area(self) -> float:
        return sum(c.circumference * c.width for c in self.cylinders)


def _separatrices(surface, u, max_trace):
    """Saddle connections leaving the cone points in direction ``u``.

    Each record carries the route its march walked (``crossings``), the one
    route kept for it.  Returns a NoClosureFound value when a separatrix is
    still open after ``max_trace``.
    """
    out = []
    for p in range(len(surface.polygons)):
        for i in range(surface.n_edges(p)):
            corner = Corner(p, i)
            evec = surface.edge_vec(p, i)
            v0 = surface.vertex(p, i)
            phi = ccw_angle(evec, u)
            if phi < TOL_ANGLE:
                # along the outgoing edge: the edge is itself a saddle
                # connection, which the marcher cannot follow
                if abs(cmath.phase(evec / u)) < TOL_ANGLE:
                    out.append(_edge_connection(surface, corner, evec))
                continue
            if phi > surface.interior_angle(corner) - TOL_ANGLE:
                continue  # along the incoming edge; traced from the partner corner
            crossings, last, _t, point, j = _march(
                surface, p, 0j, v0, v0 + u * max_trace, SEPARATRIX_BUDGET
            )
            if j is None or j < 0:
                return NoClosureFound(
                    f"separatrix from {corner} still open after length {max_trace}"
                )
            out.append(_connection(
                surface, corner, Corner(last, j), abs(point - v0) * u, crossings
            ))
    return out


def _piece_heights(surface, u, saddles):
    """Per polygon, (height, saddle index) of each piece of the given separatrices.

    The height of a polygon-local point ``z`` is ``cross(u, z)``.  A
    separatrix from ``v0`` crosses the polygon placed at ``t`` at height
    ``cross(u, v0 - t)``, with the placements developed along its
    crossings.  Only an edge record (``start_phi`` 0) lies along a glued
    edge: a marched segment that ran along an edge would meet the edge's end
    points, which are cone points, where the march stops.  An edge bounds
    the polygons on both sides of its gluing, so it is listed in the
    partner polygon as well.
    """
    pieces: dict[int, list[tuple[float, int]]] = {}
    for k, sc in enumerate(saddles):
        p, i = sc.start
        v0 = surface.vertex(p, i)
        pieces.setdefault(p, []).append((cross(u, v0), k))
        t = 0j
        for poly, e in sc.crossings:
            q, _f, t = surface.across(poly, e, t)
            pieces.setdefault(q, []).append((cross(u, v0 - t), k))
        if sc.start_phi == 0.0:
            q, _f, shift = surface.across(p, i)
            pieces.setdefault(q, []).append((cross(u, v0 - shift), k))
    return pieces


def _strips(surface, u, saddles):
    """The cylinders of a periodic direction as connected sets of strips.

    In each polygon the heights of its vertices and of the pieces of the
    separatrix records ``saddles`` crossing it (:func:`_piece_heights`),
    merged within ``TOL_VERTEX``, cut it into strips.  A strip holds no
    saddle, so it lies in one cylinder and spans its width; the strips
    crossing a glued edge match one to one in height order.  Returns one
    ``(strip widths, sides)`` pair per connected set of strips, where a
    piece of saddle ``k`` puts side ``(k, +1)`` on the strip above it and
    ``(k, -1)`` on the strip below.
    """
    pieces = _piece_heights(surface, u, saddles)
    vertex_level, width, sides = {}, {}, {}
    for p, verts in enumerate(surface.polygons):
        heights = [cross(u, v) for v in verts]
        levels: list[float] = []
        for h in sorted(heights + [h for h, _k in pieces.get(p, ())]):
            if not levels or h - levels[-1] > TOL_VERTEX:
                levels.append(h)
        vertex_level[p] = [bisect_right(levels, h) - 1 for h in heights]
        for j in range(len(levels) - 1):
            width[(p, j)] = levels[j + 1] - levels[j]
            sides[(p, j)] = set()
        for h, k in pieces.get(p, ()):
            j = bisect_right(levels, h) - 1
            if j < len(levels) - 1:
                sides[(p, j)].add((k, +1))
            if j > 0:
                sides[(p, j - 1)].add((k, -1))

    def crossing(p, e):
        """The strips of polygon ``p`` that cross its edge ``e``."""
        a, b = vertex_level[p][e], vertex_level[p][(e + 1) % surface.n_edges(p)]
        return range(min(a, b), max(a, b))

    uf = _UnionFind()
    for (p, e), (q, f) in surface.gluings.items():
        mine, theirs = crossing(p, e), crossing(q, f)
        if len(mine) != len(theirs):
            raise NoCylinders(
                f"edge {(p, e)} meets {len(mine)} strips, its partner {len(theirs)}"
            )
        for j, j2 in zip(mine, theirs):
            uf.union((p, j), (q, j2))

    groups: dict = {}
    for strip in width:
        widths, group_sides = groups.setdefault(uf.find(strip), ([], set()))
        widths.append(width[strip])
        group_sides |= sides[strip]
    return list(groups.values())


def trace_direction(surface: TranslationSurface, theta: float, max_trace: float):
    """Classify a flow direction by tracing each outgoing separatrix once.

    The incoming separatrices are the same saddle connections reversed.
    Returns a :class:`CylinderDecomposition` when every separatrix closes up
    within ``max_trace``, else a :class:`NoClosureFound` value, a
    semi-decision.  The cylinders come from :func:`_strips`.  Saddles are
    ordered by length and cylinders by decreasing area, rounded to 9 digits
    so that equal values tie.
    """
    theta = fold_direction(theta)
    u = cmath.exp(1j * theta)
    found = _separatrices(surface, u, max_trace)
    if isinstance(found, NoClosureFound):
        return found
    saddles = sorted(found, key=lambda sc: (round(sc.length, 9), sc.key()))
    cylinders = []
    for widths, sides in _strips(surface, u, saddles):
        if max(widths) - min(widths) > WIDTH_TOL:
            raise NoCylinders(
                f"inconsistent widths {min(widths)}..{max(widths)} in one cylinder"
            )
        cylinders.append(Cylinder(
            sum(saddles[k].length for (k, _s) in sides) / 2.0,
            sum(widths) / len(widths),
            tuple(sorted(sides)),
            tuple(sorted(s for s in sides if s[1] == +1)),
            tuple(sorted(s for s in sides if s[1] == -1)),
        ))
    cylinders.sort(
        key=lambda c: (
            -round(c.circumference * c.width, 9), -round(c.circumference, 9), c.sides
        )
    )

    spine_uf = _UnionFind()
    for k, sc in enumerate(saddles):
        spine_uf.union(("s", k), ("c", surface.class_of(sc.start).index))
        spine_uf.union(("s", k), ("c", surface.class_of(sc.end).index))
    spine_groups: dict = {}
    for k in range(len(saddles)):
        spine_groups.setdefault(spine_uf.find(("s", k)), []).append(k)
    spines = tuple(tuple(sorted(g)) for g in sorted(spine_groups.values()))

    decomp = CylinderDecomposition(tuple(saddles), tuple(cylinders), spines)
    if abs(decomp.area - surface.area) > 1e-6:
        raise NoCylinders(
            f"cylinder areas {decomp.area} do not tile the surface {surface.area}"
        )
    return decomp

