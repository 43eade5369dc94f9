"""Cylinder decompositions of flow directions.

A direction is *periodic* when every straight trajectory leaving a cone point
in that direction (a separatrix) closes up into a saddle connection.  The
complement of those saddle connections is then a union of flat cylinders.
``trace_direction`` semi-decides this: it traces each outgoing separatrix
once and either assembles the decomposition or reports that one survived
the trace budget, which proves nothing about longer budgets.  Widths come
from transverse rays; sides on one boundary circle are paired by angle at
the cone points.

A decomposition records its *spines* (connected components of the union of
boundary saddle connections) and, per cylinder, the boundary sides on each of
its two boundary circles; together they give the weighted dual graph, with
one vertex per spine and one edge per cylinder of the cylinder's width.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import NoClosureFound, NoCylinders
from .surface import (
    TOL_ANGLE,
    Corner,
    SaddleConnection,
    TranslationSurface,
    ccw_angle,
    connect,
    cross,
    fold_direction,
    seg_point_dist,
    trace_ray,
)

SIDE_EPS = 1e-7  # transverse offset when stepping off a boundary leaf
WIDTH_TOL = 1e-6
CONTINUE_TOL = 1e-6  # angular slack; separatrices at a cone point are 2*pi apart


@dataclass(frozen=True)
class Cylinder:
    """A cylinder whose height coordinate t runs along the left normal of the
    direction, so it lies left of its t = 0 circle and right of the other."""

    circumference: float
    width: float
    sides: tuple[tuple[int, int], ...]  # (saddle index, +1 left / -1 right)
    boundary_low: tuple[tuple[int, int], ...]  # sides on the t = 0 circle
    boundary_high: tuple[tuple[int, int], ...]  # sides on the t = width circle


@dataclass(frozen=True)
class CylinderDecomposition:
    direction: float
    saddles: tuple[SaddleConnection, ...]
    cylinders: tuple[Cylinder, ...]
    spines: tuple[tuple[int, ...], ...]

    @property
    def area(self) -> float:
        return sum(c.circumference * c.width for c in self.cylinders)


def _separatrices(surface, u, max_trace):
    """Saddle connections leaving the cone points in direction ``u``.

    Each comes with its development, the marching steps as (poly,
    translation, entry, exit) with the points in the start polygon's frame.
    Returns a NoClosureFound value when a separatrix is still open after
    ``max_trace``.
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
                    sc = connect(surface, corner, evec)
                    out.append((sc, [(p, 0j, v0, v0 + evec)]))
                continue
            if phi > surface.interior_angle(corner) - TOL_ANGLE:
                continue  # along the incoming edge; traced from the partner corner
            res = trace_ray(surface, p, v0, u, max_trace)
            if res.outcome != "vertex":
                return NoClosureFound(
                    f"separatrix from {corner} still open after length {max_trace}"
                )
            crossings = tuple((st.poly, st.edge) for st in res.steps if st.edge >= 0)
            sc = SaddleConnection(
                corner, res.end, res.length * u, phi, res.end_phi, crossings
            )
            out.append((sc, [(st.poly, st.t, st.entry, st.exit) for st in res.steps]))
    return out


def _continuations(surface, saddles):
    """Same-circle pairs ``((k, side), (k2, side))``, read off at the cone points.

    Past the end of saddle ``k`` its left (right) side continues along the
    saddle leaving pi clockwise (counterclockwise) of its arrival direction.
    """
    leaving: dict[int, list[tuple[float, int]]] = {}
    for k, sc in enumerate(saddles):
        leaving.setdefault(surface.corner_class[sc.start], []).append(
            (surface.coord_of(sc.start, sc.start_phi), k)
        )
    pairs = []
    for k, sc in enumerate(saddles):
        cc = surface.class_of(sc.end)
        arrival = surface.coord_of(sc.end, sc.end_phi)
        for side in (+1, -1):
            want = arrival - side * math.pi
            gap, k2 = min(
                (min((a - want) % cc.angle, (want - a) % cc.angle), k2)
                for a, k2 in leaving[cc.index]
            )
            if gap > CONTINUE_TOL:
                raise NoCylinders(f"no separatrix continues saddle {k} side {side}")
            pairs.append(((k, side), (k2, side)))
    return pairs


def _barrier_segments(surface, developed):
    """Per-polygon local segments of the developed saddles.

    A sub-segment lying along a glued polygon edge is visible from both sides
    of the gluing, so it is mirrored into the partner polygon as well.
    """
    barriers: dict[int, list] = {}
    for k, segs in enumerate(developed):
        for (poly, t, a, b) in segs:
            la, lb = a - t, b - t
            barriers.setdefault(poly, []).append((k, la, lb))
            for e in range(surface.n_edges(poly)):
                va, vb = surface.vertex(poly, e), surface.vertex(poly, e + 1)
                if max(seg_point_dist(va, vb, la), seg_point_dist(va, vb, lb)) < 1e-9:
                    q, _f, shift = surface.across(poly, e)
                    barriers.setdefault(q, []).append((k, la - shift, lb - shift))
    return barriers


def _ray_to_barrier(surface, barriers, poly, z0, n, max_dist):
    """First intersection of the ray from (poly, z0) with the barrier family.

    Returns (distance, saddle index) or None.  ``barriers`` maps polygon id to
    a list of (saddle index, a, b) local segments.
    """
    res = trace_ray(surface, poly, z0, n, max_dist)
    for st in res.steps:
        a_pl = st.entry
        b_pl = st.exit if st.exit is not None else st.entry + n * max_dist
        best = None
        for (k, sa, sb) in barriers.get(st.poly, ()):
            hit = _seg_seg(a_pl - st.t, b_pl - st.t, sa, sb)
            if hit is None:
                continue
            if best is None or hit < best[0]:
                best = (hit, k)
        if best is not None:
            s_loc, k = best
            hit_pl = a_pl + s_loc * (b_pl - a_pl)
            return abs(hit_pl - z0), k
    return None


def _seg_seg(a1, b1, a2, b2):
    """Parameter on [a1, b1] of its intersection with [a2, b2], None if absent."""
    d1, d2, w = b1 - a1, b2 - a2, a2 - a1
    den = cross(d1, d2)
    if abs(den) < 1e-14 * max(abs(d1), 1.0) * max(abs(d2), 1.0):
        return None
    s = cross(w, d2) / den
    t = cross(w, d1) / den
    if -1e-12 <= t <= 1 + 1e-12 and 1e-9 < s <= 1 + 1e-12:
        return s
    return None


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry


def trace_direction(surface: TranslationSurface, theta: float, max_trace: float):
    """Classify a flow direction by tracing each outgoing separatrix once.

    The incoming separatrices are the same saddle connections reversed.
    Returns a :class:`CylinderDecomposition` when every separatrix closes up
    within ``max_trace``, else a :class:`NoClosureFound` value, a
    semi-decision.  Same-circle sides come from :func:`_continuations`.
    Saddles are ordered by length and cylinders by decreasing area, rounded
    to 9 digits so that equal values tie.
    """
    theta = fold_direction(theta)
    u = cmath.exp(1j * theta)
    found = _separatrices(surface, u, max_trace)
    if isinstance(found, NoClosureFound):
        return found
    found.sort(key=lambda f: (round(f[0].length, 9), f[0].key()))
    saddles = [sc for sc, _dev in found]
    developed = [dev for _sc, dev in found]
    n = 1j * u  # left normal of the canonical orientation
    barriers = _barrier_segments(surface, developed)

    uf = _UnionFind()
    width_of: dict[tuple[int, int], float] = {}
    max_width = surface.area / min(sc.length for sc in saddles) + 1.0
    for k, sc in enumerate(saddles):
        segs = developed[k]
        for side in (+1, -1):
            hits = []
            for (poly, t, a, b) in segs:
                for frac in (0.5, 0.25, 0.75):
                    base = a + frac * (b - a)
                    start_poly, start_z = _locate(
                        surface, poly, t, base + side * SIDE_EPS * n
                    )
                    if start_poly is None:
                        continue
                    hit = _ray_to_barrier(
                        surface, barriers, start_poly, start_z, side * n, max_width
                    )
                    if hit is not None:
                        hits.append(hit)
            if not hits:
                raise NoCylinders(
                    f"transverse march from saddle {k} side {side} found no boundary"
                )
            nearest = min(h[0] for h in hits)
            width_of[(k, side)] = nearest + SIDE_EPS
            for (d, kk) in hits:
                if d <= nearest + 1e-9:
                    uf.union((k, side), (kk, -side))

    for a, b in _continuations(surface, saddles):
        uf.union(a, b)

    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for k in range(len(saddles)):
        for side in (+1, -1):
            groups.setdefault(uf.find((k, side)), []).append((k, side))

    cylinders = []
    for sides in groups.values():
        widths = [width_of[s] for s in sides]
        width = sum(widths) / len(widths)
        if max(widths) - min(widths) > WIDTH_TOL:
            raise NoCylinders(
                f"inconsistent widths {min(widths)}..{max(widths)} in one cylinder"
            )
        circ = sum(saddles[k].length for (k, _s) in sides) / 2.0
        low = tuple(sorted(s for s in sides if s[1] == +1))
        high = tuple(sorted(s for s in sides if s[1] == -1))
        cylinders.append(
            Cylinder(circ, width, tuple(sorted(sides)), low, high)
        )
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

    decomp = CylinderDecomposition(theta, tuple(saddles), tuple(cylinders), spines)
    if abs(decomp.area - surface.area) > 1e-6:
        raise NoCylinders(
            f"cylinder areas {decomp.area} do not tile the surface {surface.area}"
        )
    return decomp


def _locate(surface, poly, t, plane_pt):
    """Polygon-local coordinates of a plane point near a developed segment.

    Tries the developing placement itself, then its neighbours across each
    edge (needed when the offset point falls off a boundary-running segment).
    """
    local = plane_pt - t
    if _inside(surface, poly, local):
        return poly, local
    for e in range(surface.n_edges(poly)):
        q, _f, shift = surface.across(poly, e)
        local2 = local - shift
        if _inside(surface, q, local2):
            return q, local2
    return None, None


def _inside(surface, poly, z, margin=1e-12):
    verts = surface.polygons[poly]
    edges = zip(verts, verts[1:] + verts[:1])
    return all(cross(b - a, z - a) >= -margin * abs(b - a) for a, b in edges)

