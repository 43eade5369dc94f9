"""Cylinder decompositions of flow directions.

A direction is *periodic* when every straight trajectory leaving a cone point
in that direction (a separatrix) closes up into a saddle connection.  The
complement of those saddle connections is then a union of flat cylinders.
``trace_direction`` semi-decides this: it either assembles the decomposition
or reports that some separatrix survived the trace budget, which proves
nothing about longer budgets.

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
    TOL_VERTEX,
    Corner,
    SaddleConnection,
    TranslationSurface,
    canonical_holonomy,
    ccw_angle,
    connect,
    seg_point_dist,
    trace_ray,
)

SIDE_EPS = 1e-7  # transverse offset when stepping off a boundary leaf
WIDTH_TOL = 1e-6


@dataclass(frozen=True)
class Cylinder:
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


def _separatrix_connection(surface, corner, u, max_trace):
    """Follow one separatrix; a saddle connection, None (skip), or no-closure."""
    p, i = corner
    evec = surface.edge_vec(p, i)
    ang = surface.interior_angle(corner)
    phi = ccw_angle(evec, u)
    if phi < TOL_ANGLE:
        # along the outgoing edge: the edge is itself a saddle connection
        if abs(cmath.phase(evec / u)) < TOL_ANGLE:
            return connect(surface, corner, evec)
        return None
    if phi > ang - TOL_ANGLE:
        return None  # along the incoming edge; counted at the partner corner
    res = trace_ray(surface, p, surface.vertex(p, i), u, max_trace)
    if res.outcome != "vertex":
        return NoClosureFound(
            f"separatrix from {corner} still open after length {max_trace}"
        )
    crossings = tuple(
        (st.poly, st.edge) for st in res.steps if st.edge >= 0
    )
    hol = res.length * u
    return SaddleConnection(corner, res.end, hol, phi, res.end_phi, crossings)


def _direction_saddles(surface, theta, max_trace):
    """Canonical saddle connections in the direction, or a NoClosureFound."""
    u = cmath.exp(1j * theta)
    found = {}
    for p in range(len(surface.polygons)):
        for i in range(surface.n_edges(p)):
            for sgn in (u, -u):
                out = _separatrix_connection(surface, Corner(p, i), sgn, max_trace)
                if out is None:
                    continue
                if isinstance(out, NoClosureFound):
                    return out
                sc = out
                if not canonical_holonomy(sc.holonomy):
                    sc = sc.reverse(surface)
                sc = _canonical_rep(surface, sc)
                found.setdefault(sc.key(), sc)
    saddles = sorted(found.values(), key=lambda sc: (sc.length, sc.key()))
    return saddles


def _canonical_rep(surface, sc):
    """The unique representative an enumeration would report.

    Edge connections are traceable from either glued side; the tracer accepts
    only the corner whose outgoing edge carries the segment, so re-trace and
    fall back to the glued partner corner when rejected.
    """
    from .surface import trace_segment

    res = trace_segment(surface, sc.start, sc.holonomy)
    if res.ok:
        return SaddleConnection(
            sc.start, res.end, sc.holonomy, res.start_phi, res.end_phi, res.crossings
        )
    p, i = sc.start
    ne = surface.n_edges(p)
    q, f = surface.gluings[(p, (i - 1) % ne)]
    return connect(surface, Corner(q, f), sc.holonomy)


def _develop(surface, sc):
    """Per-polygon sub-segments of a saddle connection.

    Returns a list of (poly, translation, entry, exit) in the plane frame
    whose origin is the start cone point of the connection.
    """
    p0 = sc.start.poly
    v0 = surface.vertex(*sc.start)
    if not sc.crossings and abs(surface.edge_vec(p0, sc.start.vertex) - sc.holonomy) < TOL_VERTEX:
        # the connection runs along a polygon edge; the marcher cannot follow it
        return [(p0, 0j, v0, v0 + sc.holonomy)]
    res = trace_ray(
        surface, p0, v0, sc.holonomy / abs(sc.holonomy), abs(sc.holonomy) * (1 + 1e-6)
    )
    if res.outcome != "vertex":
        raise NoCylinders(f"could not re-develop saddle connection {sc.key()}")
    out = []
    for st in res.steps:
        exit_pt = st.exit if st.exit is not None else v0 + sc.holonomy
        out.append((st.poly, st.t, st.entry, exit_pt))
    return out


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
            ne = surface.n_edges(poly)
            for e in range(ne):
                va = surface.vertex(poly, e)
                vb = surface.vertex(poly, (e + 1) % ne)
                if (
                    seg_point_dist(va, vb, la) < 1e-9
                    and seg_point_dist(va, vb, lb) < 1e-9
                ):
                    q, f = surface.gluings[(poly, e)]
                    shift = vb - surface.vertex(q, f)
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
    d1 = b1 - a1
    d2 = b2 - a2
    den = d1.real * d2.imag - d1.imag * d2.real
    if abs(den) < 1e-14 * max(abs(d1), 1.0) * max(abs(d2), 1.0):
        return None
    w = a2 - a1
    s = (w.real * d2.imag - w.imag * d2.real) / den
    t = (w.real * d1.imag - w.imag * d1.real) / den
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
    """Classify a flow direction by separatrix tracing.

    Returns a :class:`CylinderDecomposition` when every separatrix closes up
    within ``max_trace``, else a :class:`NoClosureFound` value.  The latter is
    a semi-decision: the direction may still be periodic past the budget.
    """
    theta = theta % math.pi
    out = _direction_saddles(surface, theta, max_trace)
    if isinstance(out, NoClosureFound):
        return out
    saddles = out
    if not saddles:
        raise NoCylinders(f"no saddle connection in direction {theta}")
    u = cmath.exp(1j * theta)
    n = 1j * u  # left normal of the canonical orientation

    developed = [_develop(surface, sc) for sc in saddles]
    barriers = _barrier_segments(surface, developed)

    uf = _UnionFind()
    width_of: dict[tuple[int, int], float] = {}
    opposite: list[tuple[tuple[int, int], tuple[int, int]]] = []
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
                    opposite.append(((k, side), (kk, -side)))

    # connect sides lying on one boundary circle: flow a leaf just inside the
    # cylinder past the end cone point of each saddle and identify the saddle
    # it continues along
    min_len = min(sc.length for sc in saddles)
    samecircle: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for k, sc in enumerate(saddles):
        segs = developed[k]
        poly_t = segs[-1]
        poly, t, a, b = poly_t
        for side in (+1, -1):
            back = min(0.25 * abs(b - a), 0.5 * min_len)
            start_pl = b - back * u + side * SIDE_EPS * n
            start_poly, start_z = _locate(surface, poly, t, start_pl)
            if start_poly is None:
                continue
            flow = trace_ray(surface, start_poly, start_z, u, back + 0.3 * min_len)
            if flow.outcome != "maxlen":
                continue
            last = flow.steps[-1]
            land_pl = start_z + u * (back + 0.3 * min_len)
            land_local = land_pl - last.t
            hit = _ray_to_barrier(
                surface, barriers, last.poly, land_local, -side * n, 3 * SIDE_EPS
            )
            if hit is not None:
                uf.union((k, side), (hit[1], side))
                samecircle.append(((k, side), (hit[1], side)))

    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for k in range(len(saddles)):
        for side in (+1, -1):
            groups.setdefault(uf.find((k, side)), []).append((k, side))

    cylinders = []
    for root, sides in groups.items():
        widths = [width_of[s] for s in sides]
        width = sum(widths) / len(widths)
        if max(widths) - min(widths) > WIDTH_TOL:
            raise NoCylinders(
                f"inconsistent widths {min(widths)}..{max(widths)} in one cylinder"
            )
        # 2-color the sides into the two boundary circles via opposite pairs
        color = {sides[0]: 0}
        queue = [sides[0]]
        rel: dict[tuple[int, int], set] = {}
        for pairs, flip in ((opposite, 1), (samecircle, 0)):
            for a, b in pairs:
                if uf.find(a) == root:
                    rel.setdefault(a, set()).add((b, flip))
                    rel.setdefault(b, set()).add((a, flip))
        while queue:
            x = queue.pop()
            for (y, flip) in rel.get(x, ()):
                want = color[x] ^ flip
                if y not in color:
                    color[y] = want
                    queue.append(y)
                elif color[y] != want:
                    raise NoCylinders("boundary two-coloring failed")
        if set(color) != set(sides):
            raise NoCylinders("cylinder boundary hit graph is disconnected")
        circ = sum(saddles[k].length for (k, _s) in sides) / 2.0
        low = tuple(sorted(s for s in sides if color[s] == 0))
        high = tuple(sorted(s for s in sides if color[s] == 1))
        cylinders.append(
            Cylinder(circ, width, tuple(sorted(sides)), low, high)
        )
    cylinders.sort(key=lambda c: (-c.circumference * c.width, c.circumference))

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
        q, f = surface.gluings[(poly, e)]
        shift = surface.vertex(poly, (e + 1) % surface.n_edges(poly)) - surface.vertex(q, f)
        local2 = local - shift
        if _inside(surface, q, local2):
            return q, local2
    return None, None


def _inside(surface, poly, z, margin=1e-12):
    verts = surface.polygons[poly]
    m = len(verts)
    for e in range(m):
        a, b = verts[e], verts[(e + 1) % m]
        d = b - a
        if (d.real * (z - a).imag - d.imag * (z - a).real) < -margin * abs(d):
            return False
    return True

