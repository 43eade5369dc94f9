"""Translation surfaces from glued polygons.

A surface is a finite collection of convex planar polygons together with a
pairing of their edges by translations.  Everything downstream is built from
saddle connections, and each record is built once, by :func:`_connection`
(or :func:`_edge_connection` for a polygon edge), from the route that found
it: the enumeration's unfolding proves which vertices a straight segment
reaches, a sleeve's funnel path crosses every portal of its sleeve, and a
separatrix, whose end is not known in advance, is walked at its height
through the glued polygons by ``cylinders``.  A record's ``crossings`` are
the one route kept for a straight segment, and the polygons a record passes
through are developed from them with :meth:`TranslationSurface.across`.

Every cone angle is at least 2*pi, so the universal cover is CAT(0) and each
homotopy class of chains of saddle connections holds exactly one flat
geodesic.  :func:`tighten_chain` finds it in a *sleeve*, the list of placed
polygons the chain passes through: the funnel algorithm (Lee & Preparata
1984) gives the shortest path in the sleeve, and where that path turns by
less than pi on the outside of a cone point the sleeve is rerouted around
the other side, as in the homotopy-class shortening of Hershberger &
Snoeyink ("Computing minimum length paths of a given homotopy class", CGTA
1994).

Points and vectors are complex numbers; polygon vertices are listed
counterclockwise and edge ``i`` runs from vertex ``i`` to vertex ``i + 1``.
"""

from __future__ import annotations

import cmath
import heapq
import math
from collections import deque
from typing import NamedTuple, Sequence

from .errors import (
    ConeAngleInvalid,
    CutoffTooLarge,
    GenusTooSmall,
    GluingMismatch,
    NonPlanarPolygon,
    NotAConnection,
    NotAGeodesic,
)

TWO_PI = 2.0 * math.pi

#: relative tolerance for edge-pairing vectors
TOL_GLUE = 1e-12
#: absolute angular tolerance (radians)
TOL_ANGLE = 1e-10
#: absolute tolerance for "this point is a vertex"
TOL_VERTEX = 1e-9
#: slack below pi still accepted as a geodesic junction angle
TOL_GEODESIC = 1e-9
#: rounding used when deduplicating holonomy vectors
DEDUP_DIGITS = 8


def cross(a: complex, b: complex) -> float:
    return a.real * b.imag - a.imag * b.real


def ccw_angle(a: complex, b: complex) -> float:
    """Angle in [0, 2*pi) rotating ``a`` counterclockwise onto ``b``."""
    ang = cmath.phase(b / a) % TWO_PI
    if TWO_PI - ang < TOL_ANGLE:
        return 0.0
    return ang


def fold_direction(theta: float) -> float:
    """Undirected direction of the angle ``theta``: mod pi in [0, pi), with
    angles within ``TOL_ANGLE`` below pi read as 0."""
    th = theta % math.pi
    return 0.0 if math.pi - th < TOL_ANGLE else th


def seg_point_dist(a: complex, b: complex, p: complex) -> float:
    """Distance from point ``p`` to the segment ``[a, b]``."""
    d = b - a
    L2 = abs(d) ** 2
    if L2 == 0.0:
        return abs(p - a)
    t = ((p - a).real * d.real + (p - a).imag * d.imag) / L2
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * d))


class Corner(NamedTuple):
    """A polygon corner: vertex ``vertex`` of polygon ``poly``."""

    poly: int
    vertex: int


class ConeClass(NamedTuple):
    """One cone point: the cyclically ordered corners glued around it."""

    index: int
    corners: tuple[Corner, ...]
    angle: float
    # angular coordinate (ccw, from an arbitrary origin corner) at which each
    # corner's outgoing edge sits
    starts: tuple[float, ...]


def _corner_angle(poly: Sequence[complex], i: int) -> float:
    """Interior angle of a polygon at vertex ``i``; a straight corner is pi."""
    n = len(poly)
    out = poly[(i + 1) % n] - poly[i % n]
    back = poly[(i - 1) % n] - poly[i % n]
    ang = ccw_angle(out, back)
    if ang < TOL_ANGLE and abs(cross(out, back)) < 1e-12:
        ang = math.pi
    return ang


class TranslationSurface:
    """A glued-polygon translation surface of genus >= 2."""

    def __init__(
        self,
        polygons: tuple[tuple[complex, ...], ...],
        gluings: dict[tuple[int, int], tuple[int, int]],
        cone_classes: tuple[ConeClass, ...],
        corner_angles: dict[Corner, float],
        genus: int,
        area: float,
        name: str = "",
    ):
        self.polygons = polygons
        self.gluings = gluings
        self.cone_classes = cone_classes
        self.corner_angles = corner_angles
        self.genus = genus
        self.area = area
        self.name = name
        self.corner_class: dict[Corner, int] = {}
        # angular coordinate of each corner's outgoing edge around its cone point
        self.corner_start: dict[Corner, float] = {}
        for cc in cone_classes:
            for c, start in zip(cc.corners, cc.starts):
                self.corner_class[c] = cc.index
                self.corner_start[c] = start

    # -- basic polygon queries ------------------------------------------------

    def n_edges(self, p: int) -> int:
        return len(self.polygons[p])

    def vertex(self, p: int, i: int) -> complex:
        poly = self.polygons[p]
        return poly[i % len(poly)]

    def edge_vec(self, p: int, e: int) -> complex:
        poly = self.polygons[p]
        n = len(poly)
        return poly[(e + 1) % n] - poly[e % n]

    def interior_angle(self, corner: Corner) -> float:
        return self.corner_angles[corner]

    def across(self, p: int, e: int, t: complex = 0j) -> tuple[int, int, complex]:
        """The polygon glued to edge ``e`` of polygon ``p`` placed at ``t``.

        Returns ``(q, f, t')``: edge ``f`` of polygon ``q`` placed at ``t'``
        lies on edge ``e``.
        """
        q, f = self.gluings[(p, e)]
        return q, f, self.vertex(p, e + 1) + t - self.vertex(q, f)

    def class_of(self, corner: Corner) -> ConeClass:
        return self.cone_classes[self.corner_class[corner]]

    def coord_of(self, corner: Corner, phi: float) -> float:
        """Angular coordinate around the cone point of a direction at ``corner``.

        ``phi`` is measured counterclockwise from the corner's outgoing edge.
        """
        return (self.corner_start[corner] + phi) % self.class_of(corner).angle

    def __repr__(self) -> str:
        return (
            f"TranslationSurface({self.name or len(self.polygons)} polygons, "
            f"genus {self.genus}, {len(self.cone_classes)} cone points)"
        )


def _next_corner(gluings: dict, polygons, corner: Corner) -> Corner:
    """The next corner counterclockwise around the same glued vertex."""
    p, i = corner
    n = len(polygons[p])
    q, e = gluings[(p, (i - 1) % n)]
    return Corner(q, e)


class _UnionFind:
    """Disjoint sets of hashable items, each created on first use."""

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


def load_surface(
    polygons: list[list[complex]],
    gluings: dict[tuple[int, int], tuple[int, int]],
    name: str = "",
) -> TranslationSurface:
    """Validate polygons and gluings and assemble a :class:`TranslationSurface`.

    Raises :class:`NonPlanarPolygon`, :class:`GluingMismatch`,
    :class:`ConeAngleInvalid` or :class:`GenusTooSmall` on bad input.
    """
    polys = tuple(tuple(complex(v) for v in poly) for poly in polygons)
    if not polys:
        raise NonPlanarPolygon("no polygons given")

    area = 0.0
    for pi, poly in enumerate(polys):
        n = len(poly)
        if n < 3:
            raise NonPlanarPolygon(f"polygon {pi} has fewer than 3 vertices")
        signed = 0.0
        for i in range(n):
            signed += cross(poly[i], poly[(i + 1) % n])
        signed *= 0.5
        if signed <= 0.0:
            raise NonPlanarPolygon(f"polygon {pi} is not positively oriented")
        scale = max(abs(v) for v in poly) + 1.0
        for i in range(n):
            e0 = poly[(i + 1) % n] - poly[i]
            e1 = poly[(i + 2) % n] - poly[(i + 1) % n]
            if abs(e0) < 1e-12 * scale:
                raise NonPlanarPolygon(f"polygon {pi} has a degenerate edge")
            if cross(e0, e1) < -1e-12 * scale * scale:
                raise NonPlanarPolygon(f"polygon {pi} is not convex")
        area += signed

    # gluing combinatorics: a fixed-point-free involution on all edges
    all_edges = {(p, e) for p in range(len(polys)) for e in range(len(polys[p]))}
    if set(gluings) != all_edges:
        raise GluingMismatch("every edge must appear in the gluing table")
    for edge, partner in gluings.items():
        if partner not in all_edges:
            raise GluingMismatch(f"unknown partner edge {partner}")
        if partner == edge:
            raise GluingMismatch(f"edge {edge} glued to itself")
        if gluings[partner] != edge:
            raise GluingMismatch(f"gluing is not an involution at {edge}")
        v0 = polys[edge[0]][(edge[1] + 1) % len(polys[edge[0]])] - polys[edge[0]][edge[1]]
        v1 = (
            polys[partner[0]][(partner[1] + 1) % len(polys[partner[0]])]
            - polys[partner[0]][partner[1]]
        )
        if abs(v0 + v1) > TOL_GLUE * max(1.0, abs(v0)) * 1e3:
            # 1e3 headroom over float rounding of the inputs themselves
            raise GluingMismatch(
                f"edges {edge} and {partner} are not opposite translates"
            )

    # connectivity
    uf = _UnionFind()
    for (p, _e), (q, _f) in gluings.items():
        uf.union(p, q)
    if len({uf.find(p) for p in range(len(polys))}) != 1:
        raise GluingMismatch("surface is not connected")

    # cone classes by walking corners around each glued vertex
    seen: set[Corner] = set()
    classes: list[ConeClass] = []
    corner_angles: dict[Corner, float] = {}
    for p in range(len(polys)):
        for i in range(len(polys[p])):
            c0 = Corner(p, i)
            if c0 in seen:
                continue
            cycle = [c0]
            seen.add(c0)
            c = _next_corner(gluings, polys, c0)
            guard = 0
            while c != c0:
                cycle.append(c)
                seen.add(c)
                c = _next_corner(gluings, polys, c)
                guard += 1
                if guard > 10 * len(all_edges):
                    raise GluingMismatch("corner walk does not close up")
            angles = [_corner_angle(polys[p], i) for p, i in cycle]
            corner_angles.update(zip(cycle, angles))
            total = sum(angles)
            k = round(total / TWO_PI)
            if k < 1 or abs(total - k * TWO_PI) > 1e-9:
                raise ConeAngleInvalid(
                    f"cone angle {total!r} is not a multiple of 2*pi"
                )
            starts = []
            acc = 0.0
            for a in angles:
                starts.append(acc)
                acc += a
            classes.append(
                ConeClass(len(classes), tuple(cycle), k * TWO_PI, tuple(starts))
            )

    V = len(classes)
    E = len(all_edges) // 2
    F = len(polys)
    chi = V - E + F
    if chi % 2 != 0:
        raise GluingMismatch("Euler characteristic is odd; bad gluing")
    genus = (2 - chi) // 2
    if genus < 2:
        raise GenusTooSmall(f"genus {genus} < 2")
    gb = sum(cc.angle - TWO_PI for cc in classes)
    if abs(gb - TWO_PI * (2 * genus - 2)) > 1e-9:
        raise ConeAngleInvalid("angle excess does not match the genus")

    return TranslationSurface(
        polys, dict(gluings), tuple(classes), corner_angles, genus, area, name
    )


# -- saddle connections ------------------------------------------------------


def canonical_holonomy(w: complex) -> bool:
    """True when the direction of ``w`` lies in [0, pi) (up to tolerance)."""
    if w.imag > TOL_ANGLE * abs(w):
        return True
    if w.imag < -TOL_ANGLE * abs(w):
        return False
    return w.real > 0


class SaddleConnection(NamedTuple):
    """A flat geodesic segment between cone points with none in its interior."""

    start: Corner
    end: Corner
    holonomy: complex
    start_phi: float
    end_phi: float
    crossings: tuple[tuple[int, int], ...]

    @property
    def length(self) -> float:
        return abs(self.holonomy)

    @property
    def direction(self) -> float:
        """Undirected direction in [0, pi)."""
        return fold_direction(math.atan2(self.holonomy.imag, self.holonomy.real))

    def reverse(self, surface: TranslationSurface) -> "SaddleConnection":
        """The same connection run backwards.

        Its angles are the forward record's, swapped, so it is bit-equal to
        the record a trace of the reverse segment gives.  An edge connection
        (``start_phi`` 0) arrives along its end corner's incoming edge, so
        its reverse is the edge out of the next corner counterclockwise,
        where the same edge is outgoing.
        """
        if self.start_phi == 0.0:
            corner = _next_corner(surface.gluings, surface.polygons, self.end)
            return _edge_connection(surface, corner, -self.holonomy)
        rcross = tuple(surface.gluings[c] for c in reversed(self.crossings))
        return SaddleConnection(
            self.end, self.start, -self.holonomy, self.end_phi, self.start_phi, rcross
        )

    def key(self) -> tuple:
        return (
            self.start,
            round(self.holonomy.real, DEDUP_DIGITS),
            round(self.holonomy.imag, DEDUP_DIGITS),
            self.crossings,
        )


def _connection(
    surface: TranslationSurface,
    start: Corner,
    end: Corner,
    w: complex,
    crossings: tuple[tuple[int, int], ...],
) -> SaddleConnection:
    """The record of the segment of holonomy ``w`` from ``start`` to ``end``
    through ``crossings``, as the route that found it gives them.

    Each end angle is measured counterclockwise from its corner's outgoing
    edge: to ``w`` at the start and to ``-w`` at the end.
    """
    return SaddleConnection(
        start,
        end,
        w,
        ccw_angle(surface.edge_vec(*start), w),
        ccw_angle(surface.edge_vec(*end), -w),
        crossings,
    )


def _edge_connection(
    surface: TranslationSurface, start: Corner, w: complex
) -> SaddleConnection:
    """The record of the outgoing edge of ``start``, of holonomy ``w``: it
    leaves at angle 0 and arrives along the end corner's incoming edge."""
    p, i = start
    end = Corner(p, (i + 1) % surface.n_edges(p))
    return SaddleConnection(start, end, w, 0.0, surface.interior_angle(end), ())


#: polygon placements the enumeration's unfolding visits before it gives up
UNFOLDING_BUDGET = 500000


def enumerate_saddle_connections(
    surface: TranslationSurface,
    max_length: float,
) -> tuple[SaddleConnection, ...]:
    """All saddle connections of length <= ``max_length``, one per orientation class.

    The representative of each class is the one whose direction lies in
    [0, pi).  Around every corner an unfolding, pruned to the disk of
    radius ``max_length``, keeps with each placed polygon the window of
    directions from the corner that reach it and the edges crossed on the
    way.  A vertex strictly inside its placement's window (by more than
    ``10 * TOL_ANGLE``) is reached by a straight segment that meets no cone
    point before it, so it is a saddle connection with those crossings; a
    vertex on the window's edge lies beyond the cone point that cut the
    window, or along the corner's outgoing edge, which is the edge
    connection.  No segment is marched.

    The placements are expanded nearest first (by the distance of the edge
    entered), so when ``UNFOLDING_BUDGET`` trips, at any cutoff, the
    unfolding has reached no farther than the radius that budget covers
    (~140 on lshape), and its time, memory and route lengths stay those of
    that radius.  The tree of placements does not depend on the order, and
    the records are sorted.
    """
    found: list[SaddleConnection] = []
    work = 0
    atol = TOL_ANGLE * 10.0
    # one crossing per edge, shared by every route that takes it
    steps = [[((q, e),) for e in range(len(poly))] for q, poly in enumerate(surface.polygons)]
    for p in range(len(surface.polygons)):
        for i in range(len(surface.polygons[p])):
            corner = Corner(p, i)
            evec = surface.edge_vec(p, i)
            if canonical_holonomy(evec) and abs(evec) <= max_length + TOL_VERTEX:
                found.append(_edge_connection(surface, corner, evec))
            th0 = cmath.phase(evec)
            # heap of (distance, parent's work, edge, poly, t, lo, hi, entry,
            # crossings): placements with the window of directions from the
            # origin that reach them; no two entries tie on the first three
            wedge = (th0, th0 + surface.interior_angle(corner))
            heap = [(0.0, 0, -1, p, -surface.vertex(p, i), *wedge, -1, ())]
            while heap:
                _, _, _, q, t, lo, hi, entry, crossings = heapq.heappop(heap)
                work += 1
                if work > UNFOLDING_BUDGET:
                    raise CutoffTooLarge(
                        f"unfolding exceeded the work budget ({UNFOLDING_BUDGET})"
                    )
                verts = [v + t for v in surface.polygons[q]]
                n = len(verts)
                mid = 0.5 * (lo + hi)
                for j, v in enumerate(verts):
                    if abs(v) <= TOL_VERTEX or abs(v) > max_length + TOL_VERTEX:
                        continue
                    a = cmath.phase(v)
                    a += TWO_PI * round((mid - a) / TWO_PI)
                    if lo + atol < a < hi - atol and canonical_holonomy(v):
                        end = Corner(q, j)
                        found.append(_connection(surface, corner, end, v, crossings))
                for e in range(n):
                    if e == entry:
                        continue  # a straight segment cannot recross its entry edge
                    A, B = verts[e], verts[(e + 1) % n]
                    d = seg_point_dist(A, B, 0j)
                    if d > max_length:
                        continue
                    if abs(A) <= TOL_VERTEX or abs(B) <= TOL_VERTEX:
                        continue  # blocked by a cone point at the origin
                    a = cmath.phase(A)
                    b = cmath.phase(B)
                    delta = (b - a) % TWO_PI
                    if delta <= math.pi:
                        elo, ehi = a, a + delta
                    else:
                        elo, ehi = b, b + (TWO_PI - delta)
                    shift = TWO_PI * round((mid - 0.5 * (elo + ehi)) / TWO_PI)
                    elo += shift
                    ehi += shift
                    nlo = max(lo, elo)
                    nhi = min(hi, ehi)
                    if nhi - nlo <= atol:
                        # a window this thin can only contain directions that
                        # pass through an earlier cone point
                        continue
                    r, f, t2 = surface.across(q, e, t)
                    heapq.heappush(
                        heap, (d, work, e, r, t2, nlo, nhi, f, crossings + steps[q][e])
                    )
    found.sort(key=lambda sc: (sc.length, sc.direction, sc.start, sc.end, sc.crossings))
    return tuple(found)


# -- flat geodesics ----------------------------------------------------------


def junction_gaps(
    surface: TranslationSurface, prev: SaddleConnection, nxt: SaddleConnection
) -> tuple[float, float]:
    """Counterclockwise and clockwise angles between consecutive segments.

    Measured around the shared cone point, from the reversed incoming
    direction of ``prev`` to the outgoing direction of ``nxt``.
    """
    if surface.corner_class[prev.end] != surface.corner_class[nxt.start]:
        raise NotAGeodesic("segments do not share a cone point")
    cc = surface.class_of(prev.end)
    a_in = surface.coord_of(prev.end, prev.end_phi)
    a_out = surface.coord_of(nxt.start, nxt.start_phi)
    g = (a_out - a_in) % cc.angle
    return g, cc.angle - g


def bent_junction(
    surface: TranslationSurface, pieces: Sequence[SaddleConnection]
) -> tuple[int, bool] | None:
    """First junction with an angle below pi as ``(k, ccw)``, or None.

    ``k`` is the junction after ``pieces[k]``; ``ccw`` says the small angle
    is the counterclockwise one (cone angles are >= 2 pi, so only one is).
    """
    for k, (a, b) in enumerate(zip(pieces, pieces[1:])):
        g_ccw, g_cw = junction_gaps(surface, a, b)
        if min(g_ccw, g_cw) < math.pi - TOL_GEODESIC:
            return k, g_ccw < g_cw
    return None


def is_local_geodesic(
    surface: TranslationSurface, pieces: Sequence[SaddleConnection]
) -> bool:
    return bent_junction(surface, pieces) is None


class FlatGeodesic(NamedTuple):
    """A geodesic between cone point lifts: a chain of saddle connections."""

    pieces: tuple[SaddleConnection, ...]

    @property
    def length(self) -> float:
        return sum(p.length for p in self.pieces)

    @property
    def development(self) -> complex:
        return sum((p.holonomy for p in self.pieces), 0j)


class _Node(NamedTuple):
    """A placement in a sleeve, with the edge it was entered through."""

    poly: int
    t: complex
    entry: int  # -1 for the first placement


def _cross(surface: TranslationSurface, sleeve: list[_Node], e: int) -> None:
    """Extend the sleeve across edge ``e`` of its last placement.

    Crossing back over the entry edge returns to the previous placement, so
    that placement is dropped instead: a sleeve never folds onto itself.
    """
    poly, t, entry = sleeve[-1]
    if e == entry:
        sleeve.pop()
        return
    q, f = surface.gluings[(poly, e)]
    verts = surface.polygons[poly]
    # the arithmetic of ``across``: edge f of q placed on edge e
    sleeve.append(_Node(q, verts[(e + 1) % len(verts)] + t - surface.polygons[q][f], f))


def _exit_edge(surface: TranslationSurface, sleeve: list[_Node], k: int) -> int:
    """Edge of placement ``k`` glued to the entry edge of placement ``k + 1``."""
    nxt = sleeve[k + 1]
    return surface.gluings[(nxt.poly, nxt.entry)][1]


def _fan(
    surface: TranslationSurface, sleeve: list[_Node], j: int, target: Corner, ccw: bool
) -> int:
    """Rotate around vertex ``j`` of the last placement until its corner is ``target``.

    Each step crosses the corner's incoming edge (``ccw``) or its outgoing
    edge; returns the vertex index of the cone point in the final placement.
    """
    polygons, gluings = surface.polygons, surface.gluings
    target_poly, target_j = target
    for _ in range(len(surface.corner_class) + 1):
        poly = sleeve[-1].poly
        if poly == target_poly and j == target_j:
            return j
        e = (j - 1) % len(polygons[poly]) if ccw else j
        q, f = gluings[(poly, e)]
        _cross(surface, sleeve, e)
        j = f if ccw else (f + 1) % len(polygons[q])
    raise NotAGeodesic("segments do not share a cone point")


def _chain_sleeve(
    surface: TranslationSurface, chain: list[SaddleConnection]
) -> tuple[list[_Node], int, int, bool]:
    """Sleeve of a chain: its placements, the start and end vertex indices,
    and whether the chain bends (``bent_junction`` finds a junction).

    Each piece adds the placements its crossings pass through; at a junction
    the fan around the cone point is added on the side of the smaller angle.
    """
    p0, i0 = chain[0].start
    sleeve = [_Node(p0, -surface.polygons[p0][i0], -1)]
    j, bent = i0, False
    for k, sc in enumerate(chain):
        if k:
            g_ccw, g_cw = junction_gaps(surface, chain[k - 1], sc)
            bent = bent or min(g_ccw, g_cw) < math.pi - TOL_GEODESIC
            j = _fan(surface, sleeve, j, sc.start, ccw=g_ccw <= g_cw)
        for poly, e in sc.crossings:
            if sleeve[-1].poly != poly:
                raise NotAConnection("crossing does not leave the current polygon")
            _cross(surface, sleeve, e)
        if sleeve[-1].poly != sc.end.poly:
            raise NotAConnection("piece does not end in its end polygon")
        j = sc.end.vertex
    return sleeve, i0, j, bent


class _Vertex:
    """A vertex lift on the sleeve boundary.

    ``first`` and ``last`` are its first and last (placement, vertex index)
    occurrences in the sleeve; ``left`` says which side of the sleeve it
    bounds.
    """

    __slots__ = ("point", "first", "last", "left")

    def __init__(
        self, point: complex, first: tuple[int, int], last: tuple[int, int], left: bool
    ):
        self.point, self.first, self.last, self.left = point, first, last, left


def _blocks(a: complex, b: complex, c: complex, sign: float) -> bool:
    """Does ``c`` block the chord from ``a`` to ``b`` from one side?

    True when ``c`` lies on the left (``sign`` +1) or right (-1) of the
    chord, or within ``TOL_VERTEX`` of the chord itself.  Two lifts at the
    same planar position (the sleeve is immersed, not embedded) have no
    straight chord, so every vertex blocks it.
    """
    d = b - a
    if abs(d) < TOL_VERTEX:
        return True
    dist = sign * cross(d, c - a) / abs(d)
    if abs(dist) > TOL_VERTEX:
        return dist > 0.0
    u = c - a
    return 0.0 < u.real * d.real + u.imag * d.imag < abs(d) ** 2


def _funnel(
    surface: TranslationSurface, sleeve: list[_Node], i0: int, j_end: int
) -> list[_Vertex]:
    """Pivots of the shortest path through the sleeve, start and end included.

    The funnel algorithm of Lee & Preparata: an apex with a concave chain of
    boundary vertices on each side.  The vertices of each placement are fed
    in, left and right of the path, up to the portal (the edge glued to the
    next placement).  A new vertex pops the vertices on its own side that it
    sees past; when that side is empty, the apex advances along the other
    side while the new vertex is hidden behind it.  Every apex is a pivot.
    A vertex within ``TOL_VERTEX`` of a chord blocks it, so no piece passes
    through a cone point.
    """
    polygons, angles = surface.polygons, surface.corner_angles
    start = _Vertex(polygons[sleeve[0].poly][i0] + sleeve[0].t, (0, i0), (0, i0), True)
    path = [start]
    apex = start
    # per side, indexed by ``left``: the latest boundary vertex, the chain
    cur = [start, start]
    chains = [deque(), deque()]

    def add(v: _Vertex) -> None:
        nonlocal apex
        own, other = chains[v.left], chains[not v.left]
        sign = 1.0 if v.left else -1.0
        while own:
            prev = own[-2] if len(own) > 1 else apex
            if _blocks(prev.point, v.point, own[-1].point, -sign):
                break
            own.pop()
        if not own:
            while other and _blocks(apex.point, v.point, other[0].point, sign):
                apex = other.popleft()
                path.append(apex)
        own.append(v)
        cur[v.left] = v

    last = len(sleeve) - 1
    for k, (poly, t, _) in enumerate(sleeve):
        verts = polygons[poly]
        n = len(verts)
        if k < last:
            # the exit edge e has vertex e + 1 on the left and e on the right
            e = _exit_edge(surface, sleeve, k)
            stops = ((True, (e + 1) % n), (False, e))
        elif j_end in (cur[True].last[1], cur[False].last[1]):
            stops = ()
        else:
            stops = ((True, (j_end + 1) % n), (False, (j_end - 1) % n))
        # boundary vertices up to the exit: clockwise on the left,
        # counterclockwise on the right
        walks = [[], []]
        for left, stop in stops:
            j = cur[left].last[1]
            step = -1 if left else 1
            while j != stop:
                j = (j + step) % n
                walks[left].append(j)
        # a straight corner goes in as soon as it is next on its side, so no
        # chord between the two sides runs along the edges through it
        lefts, rights = walks[True], walks[False]
        il = ir = 0
        while il < len(lefts) or ir < len(rights):
            left = il < len(lefts) and (
                ir == len(rights)
                or abs(angles[(poly, lefts[il])] - math.pi) < TOL_ANGLE
                or abs(angles[(poly, rights[ir])] - math.pi) >= TOL_ANGLE
            )
            if left:
                j = lefts[il]
                il += 1
            else:
                j = rights[ir]
                ir += 1
            add(_Vertex(verts[j] + t, (k, j), (k, j), left))
        if k < last:
            q, _, f = sleeve[k + 1]
            cur[True].last = (k + 1, f)
            cur[False].last = (k + 1, (f + 1) % len(polygons[q]))
    for left in (True, False):
        if cur[left].last[1] == j_end:
            return path + list(chains[left])
    # verts and t are still the last placement's
    add(_Vertex(verts[j_end] + t, (last, j_end), (last, j_end), True))
    return path + list(chains[True])


def _piece(
    surface: TranslationSurface, sleeve: list[_Node], a: _Vertex, b: _Vertex
) -> SaddleConnection:
    """The saddle connection from pivot ``a`` to pivot ``b``, read off the sleeve.

    It leaves ``a`` from the last placement around ``a``, crosses the exit
    edges of that placement and of each later one before the first
    placement around ``b`` (the funnel path crosses every portal), and
    arrives at ``b`` there.  A piece along the corner's outgoing edge is
    that edge; one that runs back along its incoming edge is the edge out of
    the next corner counterclockwise, where the same edge is outgoing.
    """
    k, j = a.last
    corner = Corner(sleeve[k].poly, j)
    w = b.point - a.point
    phi = ccw_angle(surface.edge_vec(*corner), w)
    if phi < TOL_ANGLE:
        return _edge_connection(surface, corner, w)
    if phi > surface.interior_angle(corner) - TOL_ANGLE:
        corner = _next_corner(surface.gluings, surface.polygons, corner)
        return _edge_connection(surface, corner, w)
    kb, jb = b.first
    crossings = tuple(
        (sleeve[m].poly, _exit_edge(surface, sleeve, m)) for m in range(k, kb)
    )
    return _connection(surface, corner, Corner(sleeve[kb].poly, jb), w, crossings)


def _reroute(
    surface: TranslationSurface, sleeve: list[_Node], v: _Vertex
) -> list[_Node]:
    """Sleeve with the placements around ``v`` replaced by the fan on its other side."""
    (k0, j0), (k1, j1) = v.first, v.last
    out = sleeve[: k0 + 1]
    # a left-side vertex is passed with the sleeve turning counterclockwise
    _fan(surface, out, j0, Corner(sleeve[k1].poly, j1), ccw=not v.left)
    for k in range(k1, len(sleeve) - 1):
        _cross(surface, out, _exit_edge(surface, sleeve, k))
    return out


#: guard on the number of reroutes; each one strictly shortens the path
MAX_REROUTES = 100


def _shortest_in_sleeve(
    surface: TranslationSurface, sleeve: list[_Node], i0: int, j_end: int
) -> FlatGeodesic:
    """The geodesic through a chain's sleeve: funnel, read the pieces off the
    sleeve, and reroute around the first pivot bent below pi on its outside
    until no junction bends.

    Raises ``NotAGeodesic`` when the funnel bends at a grazed vertex (the
    small angle lies inside the sleeve) or the reroute guard is reached.
    """
    for _ in range(MAX_REROUTES):
        pivots = _funnel(surface, sleeve, i0, j_end)
        pieces = [_piece(surface, sleeve, a, b) for a, b in zip(pivots, pivots[1:])]
        bent = bent_junction(surface, pieces)
        if bent is None:
            return FlatGeodesic(tuple(pieces))
        k, ccw = bent
        v = pivots[k + 1]
        if ccw == v.left:
            # small angle inside the sleeve: the funnel bent at a grazed vertex
            raise NotAGeodesic("path grazes a cone point")
        sleeve = _reroute(surface, sleeve, v)
    raise NotAGeodesic("geodesic search exceeded its reroute guard")


def tighten_chain(
    surface: TranslationSurface, chain: list[SaddleConnection]
) -> FlatGeodesic:
    """Geodesic between the endpoints of a saddle connection chain.

    The universal cover of the surface is CAT(0), so the homotopy class of
    the chain (rel endpoints) holds exactly one geodesic, and a chain of
    saddle connections is that geodesic as soon as it is locally geodesic:
    at every junction both angles are at least pi.  Such a chain is
    returned as it stands, once its sleeve shows that its crossings match
    the polygons: its pieces are the caller's own records, and the funnel
    runs only on chains that bend.  The search follows the homotopy-class
    shortening of Hershberger & Snoeyink ("Computing minimum length paths
    of a given homotopy class", CGTA 1994):

    * the *sleeve* is the list of placed polygons the chain passes through,
      with the fan of polygons around each junction's cone point on one
      side;
    * the funnel algorithm (Lee & Preparata 1984) gives the shortest path
      through the sleeve, bending only at vertex lifts (the pivots), and
      each piece between pivots is read off the sleeve (:func:`_piece`):
      the path crosses every portal, so no piece is traced again;
    * at the first pivot whose angle outside the sleeve is below pi, the
      placements around that cone point are replaced by the fan on the
      other side and the funnel runs again.  The old path lies in the new
      sleeve and can be shortened there, so each reroute strictly shortens
      the path; ``MAX_REROUTES`` is only a guard.

    Raises ``NotAGeodesic`` when consecutive pieces do not share a cone
    point, the path grazes a cone point or the guard is reached, and
    ``NotAConnection`` when a piece's crossings do not match the polygons.
    """
    chain = list(chain)
    if abs(sum((sc.holonomy for sc in chain), 0j)) < TOL_VERTEX:
        return FlatGeodesic(())
    sleeve, i0, j_end, bent = _chain_sleeve(surface, chain)
    if not bent:
        return FlatGeodesic(tuple(chain))
    return _shortest_in_sleeve(surface, sleeve, i0, j_end)
