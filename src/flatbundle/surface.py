"""Translation surfaces from glued polygons.

A surface is a finite collection of convex planar polygons together with a
pairing of their edges by translations.  Everything downstream (saddle
connection enumeration, direction tracing, flat geodesics) reduces to marching
straight segments through the glued polygons, so the marching primitives here
are written once and shared.

Points and vectors are complex numbers; polygon vertices are listed
counterclockwise and edge ``i`` runs from vertex ``i`` to vertex ``i + 1``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .errors import (
    BallExceeded,
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


@dataclass(frozen=True)
class ConeClass:
    """One cone point: the cyclically ordered corners glued around it."""

    index: int
    corners: tuple[Corner, ...]
    angle: float
    # angular coordinate (ccw, from an arbitrary origin corner) at which each
    # corner's outgoing edge sits
    starts: tuple[float, ...]

    def start_of(self, corner: Corner) -> float:
        return self.starts[self.corners.index(corner)]


class TranslationSurface:
    """A glued-polygon translation surface of genus >= 2."""

    def __init__(
        self,
        polygons: tuple[tuple[complex, ...], ...],
        gluings: dict[tuple[int, int], tuple[int, int]],
        cone_classes: tuple[ConeClass, ...],
        genus: int,
        area: float,
        name: str = "",
    ):
        self.polygons = polygons
        self.gluings = gluings
        self.cone_classes = cone_classes
        self.genus = genus
        self.area = area
        self.name = name
        self.corner_class: dict[Corner, int] = {}
        for cc in cone_classes:
            for c in cc.corners:
                self.corner_class[c] = cc.index

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
        p, i = corner
        out = self.edge_vec(p, i)
        inc = self.edge_vec(p, (i - 1) % self.n_edges(p))
        ang = ccw_angle(out, -inc)
        if ang < TOL_ANGLE:  # straight corner
            ang = math.pi if abs(cross(out, inc)) < 1e-12 else ang
        return ang

    def class_of(self, corner: Corner) -> ConeClass:
        return self.cone_classes[self.corner_class[corner]]

    def coord_of(self, corner: Corner, phi: float) -> float:
        """Angular coordinate around the cone point of a direction at ``corner``.

        ``phi`` is measured counterclockwise from the corner's outgoing edge.
        """
        cc = self.class_of(corner)
        return (cc.start_of(corner) + phi) % cc.angle

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
    parent = list(range(len(polys)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (p, _e), (q, _f) in gluings.items():
        parent[find(p)] = find(q)
    if len({find(p) for p in range(len(polys))}) != 1:
        raise GluingMismatch("surface is not connected")

    # cone classes by walking corners around each glued vertex
    def interior(corner: Corner) -> float:
        p, i = corner
        n = len(polys[p])
        out = polys[p][(i + 1) % n] - polys[p][i]
        back = polys[p][(i - 1) % n] - polys[p][i]
        ang = ccw_angle(out, back)
        if ang < TOL_ANGLE and abs(cross(out, back)) < 1e-12:
            ang = math.pi
        return ang

    seen: set[Corner] = set()
    classes: list[ConeClass] = []
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
            angles = [interior(c) for c in cycle]
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

    return TranslationSurface(polys, dict(gluings), tuple(classes), genus, area, name)


# -- marching ----------------------------------------------------------------


class _Exit(NamedTuple):
    s: float  # parameter along [c, W]
    edge: int
    point: complex
    at_vertex: int  # vertex index if the crossing is (numerically) a vertex, else -1


def _find_exit(
    surface: TranslationSurface,
    poly: int,
    t: complex,
    c: complex,
    W: complex,
    skip_edge: int,
) -> _Exit | None:
    """First boundary crossing of the segment ``[c, W]`` in placed polygon."""
    verts = [v + t for v in surface.polygons[poly]]
    n = len(verts)
    d1 = W - c
    best: _Exit | None = None
    for k in range(n):
        if k == skip_edge:
            continue
        A = verts[k]
        B = verts[(k + 1) % n]
        d2 = B - A
        den = cross(d1, d2)
        if abs(den) < 1e-15 * (abs(d1) * abs(d2) + 1e-30):
            continue
        s = cross(A - c, d2) / den
        u = cross(A - c, d1) / den
        slack = TOL_VERTEX / abs(d2)
        if u < -slack or u > 1.0 + slack:
            continue
        if s * abs(d1) < TOL_VERTEX:
            continue
        X = c + s * d1
        at_vertex = -1
        if abs(X - A) < TOL_VERTEX:
            at_vertex = k
        elif abs(X - B) < TOL_VERTEX:
            at_vertex = (k + 1) % n
        if best is None or s < best.s - 1e-15:
            best = _Exit(s, k, X, at_vertex)
    return best


@dataclass(frozen=True)
class TraceResult:
    ok: bool
    reason: str
    crossings: tuple[tuple[int, int], ...]
    placements: tuple[tuple[int, complex], ...]
    end: Corner | None
    start_phi: float
    end_phi: float


def trace_segment(
    surface: TranslationSurface,
    start: Corner,
    w: complex,
    *,
    budget: int = 20000,
) -> TraceResult:
    """March the straight segment of holonomy ``w`` out of ``start``.

    The segment succeeds when it ends exactly at a cone point without meeting
    one on the way.  The start direction must lie in the corner's wedge
    (measuring counterclockwise from the outgoing edge); directions along the
    far wedge boundary are rejected so each edge connection is traced from a
    single corner.
    """
    p, i = start
    t0 = -surface.vertex(p, i)
    evec = surface.edge_vec(p, i)
    ang = surface.interior_angle(start)
    phi = ccw_angle(evec, w)
    if phi < TOL_ANGLE:
        if abs(w - evec) < TOL_VERTEX:
            end = Corner(p, (i + 1) % surface.n_edges(p))
            return TraceResult(
                True, "edge", (), ((p, t0),), end, 0.0, surface.interior_angle(end)
            )
        return TraceResult(False, "along-edge", (), ((p, t0),), None, phi, math.nan)
    if phi > ang - TOL_ANGLE:
        return TraceResult(False, "outside-wedge", (), ((p, t0),), None, phi, math.nan)

    crossings: list[tuple[int, int]] = []
    placements: list[tuple[int, complex]] = [(p, t0)]
    c = 0j
    W = w
    poly, t = p, t0
    entry = -1
    start_phi = phi
    for _ in range(budget):
        ex = _find_exit(surface, poly, t, c, W, entry)
        remaining = abs(W - c)
        if ex is None or ex.s * abs(W - c) >= remaining - TOL_VERTEX:
            # the target lies in (or on the boundary of) this polygon
            for j, v in enumerate(surface.polygons[poly]):
                if abs(v + t - W) < TOL_VERTEX:
                    rdir = -(W - c)
                    ephi = ccw_angle(surface.edge_vec(poly, j), rdir)
                    return TraceResult(
                        True,
                        "ok",
                        tuple(crossings),
                        tuple(placements),
                        Corner(poly, j),
                        start_phi,
                        ephi,
                    )
            return TraceResult(
                False, "end-not-cone", tuple(crossings), tuple(placements), None,
                start_phi, math.nan,
            )
        if ex.at_vertex >= 0:
            X = ex.point
            if abs(X - W) < TOL_VERTEX:
                j = ex.at_vertex
                rdir = -(W - c)
                ephi = ccw_angle(surface.edge_vec(poly, j), rdir)
                return TraceResult(
                    True,
                    "ok",
                    tuple(crossings),
                    tuple(placements),
                    Corner(poly, j),
                    start_phi,
                    ephi,
                )
            return TraceResult(
                False, "hits-cone-point", tuple(crossings), tuple(placements), None,
                start_phi, math.nan,
            )
        # cross into the glued neighbour
        q, f = surface.gluings[(poly, ex.edge)]
        B = surface.vertex(poly, ex.edge + 1) + t
        t = B - surface.vertex(q, f)
        crossings.append((poly, ex.edge))
        placements.append((q, t))
        c = ex.point
        poly, entry = q, f
    return TraceResult(
        False, "budget", tuple(crossings), tuple(placements), None, start_phi, math.nan
    )


@dataclass(frozen=True)
class RayStep:
    poly: int
    t: complex
    entry: complex
    exit: complex | None
    edge: int  # edge crossed on leaving, -1 at the final step


@dataclass(frozen=True)
class RayResult:
    outcome: str  # "vertex" | "maxlen" | "budget"
    steps: tuple[RayStep, ...]
    length: float
    end: Corner | None
    end_phi: float


def trace_ray(
    surface: TranslationSurface,
    poly: int,
    point: complex,
    direction: complex,
    max_length: float,
    *,
    budget: int = 100000,
) -> RayResult:
    """March a ray from an interior point until it hits a cone point.

    Returns the full list of marching steps so callers can post-process them
    (closed-leaf detection for cylinders uses this).
    """
    d = direction / abs(direction)
    c = point
    W = point + d * max_length
    t = 0j
    entry = -1
    steps: list[RayStep] = []
    for _ in range(budget):
        ex = _find_exit(surface, poly, t, c, W, entry)
        if ex is None or ex.s >= 1.0 - TOL_VERTEX / max_length:
            steps.append(RayStep(poly, t, c, None, -1))
            return RayResult("maxlen", tuple(steps), max_length, None, math.nan)
        if ex.at_vertex >= 0:
            steps.append(RayStep(poly, t, c, ex.point, -1))
            j = ex.at_vertex
            ephi = ccw_angle(surface.edge_vec(poly, j), -d)
            return RayResult(
                "vertex", tuple(steps), abs(ex.point - point), Corner(poly, j), ephi
            )
        steps.append(RayStep(poly, t, c, ex.point, ex.edge))
        q, f = surface.gluings[(poly, ex.edge)]
        B = surface.vertex(poly, ex.edge + 1) + t
        t = B - surface.vertex(q, f)
        c = ex.point
        poly, entry = q, f
    return RayResult("budget", tuple(steps), math.nan, None, math.nan)


# -- saddle connections ------------------------------------------------------


def canonical_holonomy(w: complex) -> bool:
    """True when the direction of ``w`` lies in [0, pi) (up to tolerance)."""
    if w.imag > TOL_ANGLE * abs(w):
        return True
    if w.imag < -TOL_ANGLE * abs(w):
        return False
    return w.real > 0


@dataclass(frozen=True)
class SaddleConnection:
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
        th = math.atan2(self.holonomy.imag, self.holonomy.real) % math.pi
        if math.pi - th < TOL_ANGLE:
            th = 0.0
        return th

    def start_coord(self, surface: TranslationSurface) -> float:
        return surface.coord_of(self.start, self.start_phi)

    def end_coord(self, surface: TranslationSurface) -> float:
        return surface.coord_of(self.end, self.end_phi)

    def reverse(self, surface: TranslationSurface) -> "SaddleConnection":
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


def connect(surface: TranslationSurface, start: Corner, w: complex) -> SaddleConnection:
    """Trace ``w`` from ``start`` and return the saddle connection, or raise."""
    res = trace_segment(surface, start, w)
    if not res.ok:
        raise NotAConnection(f"segment from {start} by {w}: {res.reason}")
    return SaddleConnection(
        start, res.end, w, res.start_phi, res.end_phi, res.crossings
    )


def enumerate_saddle_connections(
    surface: TranslationSurface,
    max_length: float,
    *,
    budget: int = 500000,
) -> tuple[SaddleConnection, ...]:
    """All saddle connections of length <= ``max_length``, one per orientation class.

    The representative of each class is the one whose direction lies in
    [0, pi).  Candidates come from a breadth-first unfolding around every
    corner pruned to the disk of radius ``max_length``; each candidate is then
    validated by marching it through the glued surface.
    """
    found: dict[tuple, SaddleConnection] = {}
    work = 0
    atol = TOL_ANGLE * 10.0
    for p in range(len(surface.polygons)):
        for i in range(len(surface.polygons[p])):
            corner = Corner(p, i)
            t0 = -surface.vertex(p, i)
            th0 = cmath.phase(surface.edge_vec(p, i))
            wedge = (th0, th0 + surface.interior_angle(corner))
            # stack of (poly, t, lo, hi): placements with the window of
            # directions from the origin that reach them
            queue: list[tuple[int, complex, float, float, int]] = [
                (p, t0, *wedge, -1)
            ]
            candidates: dict[tuple, complex] = {}
            while queue:
                q, t, lo, hi, entry = queue.pop()
                work += 1
                if work > budget:
                    raise CutoffTooLarge(
                        f"unfolding exceeded the work budget ({budget})"
                    )
                verts = [v + t for v in surface.polygons[q]]
                n = len(verts)
                mid = 0.5 * (lo + hi)
                for j, v in enumerate(verts):
                    if abs(v) <= TOL_VERTEX or abs(v) > max_length + TOL_VERTEX:
                        continue
                    a = cmath.phase(v)
                    a += TWO_PI * round((mid - a) / TWO_PI)
                    if lo - atol <= a <= hi + atol:
                        ck = (round(v.real, DEDUP_DIGITS), round(v.imag, DEDUP_DIGITS))
                        candidates.setdefault(ck, v)
                for e in range(n):
                    if e == entry:
                        continue  # a straight segment cannot recross its entry edge
                    A, B = verts[e], verts[(e + 1) % n]
                    if seg_point_dist(A, B, 0j) > max_length:
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
                    r, f = surface.gluings[(q, e)]
                    t2 = B - surface.vertex(r, f)
                    queue.append((r, t2, nlo, nhi, f))
            for w in candidates.values():
                if not canonical_holonomy(w):
                    continue
                res = trace_segment(surface, corner, w)
                if not res.ok:
                    continue
                sc = SaddleConnection(
                    corner, res.end, w, res.start_phi, res.end_phi, res.crossings
                )
                found.setdefault(sc.key(), sc)
    out = sorted(
        found.values(),
        key=lambda sc: (sc.length, sc.direction, sc.start, sc.end, sc.crossings),
    )
    return tuple(out)


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


def is_local_geodesic(
    surface: TranslationSurface, pieces: tuple[SaddleConnection, ...]
) -> bool:
    for a, b in zip(pieces, pieces[1:]):
        g1, g2 = junction_gaps(surface, a, b)
        if min(g1, g2) < math.pi - 1e-9:
            return False
    return True


@dataclass(frozen=True)
class FlatGeodesic:
    """A geodesic between cone point lifts: a chain of saddle connections."""

    pieces: tuple[SaddleConnection, ...]

    @property
    def length(self) -> float:
        return sum(p.length for p in self.pieces)

    @property
    def development(self) -> complex:
        return sum((p.holonomy for p in self.pieces), 0j)

    def reverse(self, surface: TranslationSurface) -> "FlatGeodesic":
        return FlatGeodesic(tuple(p.reverse(surface) for p in reversed(self.pieces)))


def concatenate(
    surface: TranslationSurface, pieces: list[SaddleConnection]
) -> FlatGeodesic:
    """Assemble pieces into a geodesic, checking the angle condition."""
    pieces = list(pieces)
    if not is_local_geodesic(surface, tuple(pieces)):
        raise NotAGeodesic("junction angle below pi")
    return FlatGeodesic(tuple(pieces))


class Corridor:
    """A sheet-aware patch of placed polygon copies in the plane.

    Nodes are placements ``(polygon, translation)``; links pair placement
    edges according to the surface gluings.  The patch is grown only through
    :meth:`grow`, so two overlapping placements on different sheets are never
    confused.
    """

    def __init__(self, surface: TranslationSurface):
        self.surface = surface
        self.nodes: list[tuple[int, complex]] = []
        self.links: dict[tuple[int, int], tuple[int, int]] = {}
        self._see_cache: dict = {}

    def add(self, poly: int, t: complex) -> int:
        self.nodes.append((poly, t))
        return len(self.nodes) - 1

    def grow(self, n: int, e: int) -> int:
        """Placement across edge ``e`` of node ``n`` (created if missing)."""
        if (n, e) in self.links:
            return self.links[(n, e)][0]
        poly, t = self.nodes[n]
        q, f = self.surface.gluings[(poly, e)]
        B = self.surface.vertex(poly, e + 1) + t
        t2 = B - self.surface.vertex(q, f)
        m = self.add(q, t2)
        self.links[(n, e)] = (m, f)
        self.links[(m, f)] = (n, e)
        return m

    def pos(self, n: int, j: int) -> complex:
        poly, t = self.nodes[n]
        return self.surface.vertex(poly, j) + t

    def placed(self, n: int) -> list[complex]:
        poly, t = self.nodes[n]
        return [v + t for v in self.surface.polygons[poly]]

    def star(self, n: int, j: int) -> list[tuple[int, int]]:
        """All (node, vertex) occurrences of the same vertex lift around it."""
        out = [(n, j)]
        # clockwise: cross the outgoing edge
        cur = (n, j)
        guard = 0
        while True:
            poly, _t = self.nodes[cur[0]]
            link = self.links.get((cur[0], cur[1]))
            if link is None:
                break
            m, f = link
            nf = self.surface.n_edges(self.nodes[m][0])
            cur = (m, (f + 1) % nf)
            if cur == (n, j) or cur in out:
                return out  # closed star
            out.append(cur)
            guard += 1
            if guard > 1000:
                break
        # counterclockwise: cross the incoming edge
        cur = (n, j)
        while True:
            poly, _t = self.nodes[cur[0]]
            ne = self.surface.n_edges(poly)
            link = self.links.get((cur[0], (cur[1] - 1) % ne))
            if link is None:
                break
            m, f = link
            cur = (m, f)
            if cur in out:
                break
            out.insert(0, cur)
            guard += 1
            if guard > 1000:
                break
        return out

    def fan(self, n: int, j: int, target: Corner, ccw: bool) -> tuple[int, int]:
        """Grow placements rotating around the vertex lift until ``target``.

        Returns the (node, vertex) occurrence whose corner equals ``target``.
        """
        cur = (n, j)
        cc = self.surface.class_of(Corner(self.nodes[n][0], j))
        for _ in range(len(cc.corners) + 2):
            poly = self.nodes[cur[0]][0]
            if Corner(poly, cur[1]) == target:
                return cur
            if ccw:
                ne = self.surface.n_edges(poly)
                m = self.grow(cur[0], (cur[1] - 1) % ne)
                _m2, f = self.links[(cur[0], (cur[1] - 1) % ne)]
                cur = (m, f)
            else:
                m = self.grow(cur[0], cur[1])
                _m2, f = self.links[(cur[0], cur[1])]
                nf = self.surface.n_edges(self.nodes[m][0])
                cur = (m, (f + 1) % nf)
        raise BallExceeded(f"fan around {target} did not close")

    # -- visibility by marching through the patch ---------------------------

    def see_cached(
        self, a: tuple[int, int], b: tuple[int, int]
    ) -> tuple[int, int] | None:
        """Like ``see`` but memoized.

        A positive answer stays valid as the corridor grows; a negative
        answer is retried once new placements have been added.
        """
        key = (a, b)
        hit = self._see_cache.get(key)
        n = len(self.nodes)
        if hit is not None and (hit[0] is not None or hit[1] == n):
            return hit[0]
        res = self.see(a, b)
        self._see_cache[key] = (res, n)
        return res

    def see(
        self, a: tuple[int, int], b: tuple[int, int], *, budget: int = 2000
    ) -> tuple[int, int] | None:
        """Is the straight segment between vertex lifts inside the patch?

        Returns the (start occurrence vertex, end occurrence vertex) pair of
        corner occurrences actually used, or None.
        """
        U = self.pos(*a)
        V = self.pos(*b)
        w = V - U
        if abs(w) < TOL_VERTEX:
            return None
        for (n, j) in self.star(*a):
            poly, t = self.nodes[n]
            evec = self.surface.edge_vec(poly, j)
            ang = self.surface.interior_angle(Corner(poly, j))
            phi = ccw_angle(evec, w)
            if phi < TOL_ANGLE:
                # along the outgoing edge: visible iff b is its far endpoint
                if abs(w - evec) < TOL_VERTEX:
                    nf = self.surface.n_edges(poly)
                    return (n, j), (n, (j + 1) % nf)
                continue
            if phi > ang - TOL_ANGLE:
                # along the incoming edge, backwards: cross to the partner
                # copy, where the same segment runs along an outgoing edge
                ne = self.surface.n_edges(poly)
                if abs(w + self.surface.edge_vec(poly, (j - 1) % ne)) < TOL_VERTEX:
                    m = self.grow(n, (j - 1) % ne)
                    _m, f = self.links[(n, (j - 1) % ne)]
                    nf = self.surface.n_edges(self.nodes[m][0])
                    return (m, f), (m, (f + 1) % nf)
                continue
            hit = self._march(n, U, V)
            if hit is not None:
                return (n, j), hit
        return None

    def _march(self, n: int, U: complex, V: complex) -> tuple[int, int] | None:
        c = U
        entry = -1
        for _ in range(2000):
            poly, t = self.nodes[n]
            ex = _find_exit(self.surface, poly, t, c, V, entry)
            if ex is None or ex.s * abs(V - c) >= abs(V - c) - TOL_VERTEX:
                for j, v in enumerate(self.surface.polygons[poly]):
                    if abs(v + t - V) < TOL_VERTEX:
                        return (n, j)
                return None
            if ex.at_vertex >= 0:
                if abs(ex.point - V) < TOL_VERTEX:
                    return (n, ex.at_vertex)
                return None
            link = self.links.get((n, ex.edge))
            if link is None:
                return None
            n, entry = link
            c = ex.point
        return None


def _chain_corridor(
    surface: TranslationSurface, pieces: list[SaddleConnection]
) -> tuple[Corridor, tuple[int, int], tuple[int, int]]:
    """Corridor containing a chain of saddle connections; returns (corridor, S, E)."""
    c = Corridor(surface)
    p0, i0 = pieces[0].start
    n = c.add(p0, -surface.vertex(p0, i0))
    S = (n, i0)
    cur_occ = S
    for k, sc in enumerate(pieces):
        # walk this piece's crossings from its start occurrence
        node = cur_occ[0]
        # the piece starts at corner sc.start; cur_occ may sit at a different
        # occurrence of the same lift, so rotate to it first
        occ = c.fan(cur_occ[0], cur_occ[1], sc.start, ccw=True)
        node = occ[0]
        for (poly, e) in sc.crossings:
            assert c.nodes[node][0] == poly
            node = c.grow(node, e)
        end_occ = (node, sc.end.vertex)
        assert c.nodes[node][0] == sc.end.poly
        if k + 1 < len(pieces):
            nxt = pieces[k + 1]
            occ2 = c.fan(end_occ[0], end_occ[1], nxt.start, ccw=True)
            # also pre-open the clockwise side so shortcuts on either side exist
            c.fan(end_occ[0], end_occ[1], nxt.start, ccw=False)
            cur_occ = occ2
        else:
            cur_occ = end_occ
    return c, S, cur_occ


def _dijkstra_pivots(
    corridor: Corridor, S: tuple[int, int], E: tuple[int, int]
) -> list[tuple[int, int]] | None:
    """Shortest pivot chain from S to E bending only at vertex lifts."""
    import heapq

    surface = corridor.surface
    # canonical id for each vertex lift = lexicographically least occurrence
    canon: dict[tuple[int, int], tuple[int, int]] = {}
    lifts: list[tuple[int, int]] = []
    for n in range(len(corridor.nodes)):
        poly, _t = corridor.nodes[n]
        for j in range(surface.n_edges(poly)):
            if (n, j) in canon:
                continue
            st = corridor.star(n, j)
            rep = min(st)
            for occ in st:
                canon[occ] = rep
            lifts.append(rep)
    Sc, Ec = canon[S], canon[E]
    pos = {v: corridor.pos(*v) for v in lifts}
    dist = {Sc: 0.0}
    prev: dict[tuple[int, int], tuple[int, int]] = {}
    heap = [(0.0, Sc)]
    done: set[tuple[int, int]] = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        if v == Ec:
            break
        pv = pos[v]
        for u in lifts:
            if u in done:
                continue
            # the chord weight equals the straight-line distance, so the
            # visibility march only runs when it could actually improve
            nd = d + abs(pos[u] - pv)
            if nd >= dist.get(u, math.inf) - 1e-15:
                continue
            if corridor.see_cached(v, u) is None:
                continue
            dist[u] = nd
            prev[u] = v
            heapq.heappush(heap, (nd, u))
    if Ec not in done:
        return None
    path = [Ec]
    while path[-1] != Sc:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def _pieces_from_pivots(
    corridor: Corridor, path: list[tuple[int, int]]
) -> list[SaddleConnection]:
    surface = corridor.surface
    pieces = []
    for a, b in zip(path, path[1:]):
        occ = corridor.see_cached(a, b)
        if occ is None:
            raise NotAGeodesic("pivot chain lost visibility")
        (n1, j1), (n2, j2) = occ
        start = Corner(corridor.nodes[n1][0], j1)
        w = corridor.pos(*b) - corridor.pos(*a)
        pieces.append(connect(surface, start, w))
    return pieces


def _shorten(
    corridor: Corridor,
    S: tuple[int, int],
    E: tuple[int, int],
    *,
    max_rounds: int = 60,
    max_nodes: int = 4000,
) -> FlatGeodesic:
    """Local-shortening fixpoint inside a growing corridor.

    Compute the shortest bending chain in the patch, check the angle condition
    around every pivot on the surface, and where it fails open the patch on
    the short side and repeat.
    """
    surface = corridor.surface
    if abs(corridor.pos(*S) - corridor.pos(*E)) < TOL_VERTEX:
        return FlatGeodesic(())
    for _ in range(max_rounds):
        if len(corridor.nodes) > max_nodes:
            raise BallExceeded("corridor grew past the node budget")
        path = _dijkstra_pivots(corridor, S, E)
        if path is None:
            raise NotAGeodesic("endpoints are not connected in the corridor")
        pieces = _pieces_from_pivots(corridor, path)
        worst = None
        for k in range(len(pieces) - 1):
            g_ccw, g_cw = junction_gaps(surface, pieces[k], pieces[k + 1])
            if min(g_ccw, g_cw) < math.pi - 1e-9:
                worst = (k, g_ccw < g_cw)
                break
        if worst is None:
            return FlatGeodesic(tuple(pieces))
        k, short_ccw = worst
        # open the corridor around the offending pivot on the short side
        occ = corridor.see_cached(path[k], path[k + 1])
        (_sn, _sj), (en, ej) = occ
        corridor.fan(en, ej, pieces[k + 1].start, ccw=short_ccw)
    raise NotAGeodesic("local shortening did not converge")


def tighten_chain(
    surface: TranslationSurface, chain: list[SaddleConnection], **kw
) -> FlatGeodesic:
    """Geodesic between the endpoints of a saddle connection chain."""
    if not chain:
        return FlatGeodesic(())
    corridor, S, E = _chain_corridor(surface, list(chain))
    return _shorten(corridor, S, E, **kw)


def flat_geodesic(
    surface: TranslationSurface,
    start: Corner,
    crossings: list[tuple[int, int]],
    end_vertex: int,
    **kw,
) -> FlatGeodesic:
    """Geodesic from ``start`` to a cone lift reached through ``crossings``.

    ``crossings`` is a homotopy hint: the sequence of (polygon, edge) pairs a
    path from the start corner crosses; ``end_vertex`` is the vertex index of
    the final polygon copy.
    """
    corridor = Corridor(surface)
    p, i = start
    n = corridor.add(p, -surface.vertex(p, i))
    S = (n, i)
    for (poly, e) in crossings:
        if corridor.nodes[n][0] != poly:
            raise NotAConnection("crossing hint does not match the polygons")
        n = corridor.grow(n, e)
    return _shorten(corridor, S, (n, end_vertex), **kw)
