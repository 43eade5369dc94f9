"""Slow independent reference implementations used to check fast code paths.

Everything here favors obviousness over speed: the reference tracer
``connect``, which marches a segment through the glued polygons to find
where it ends (the package builds each record from the route that found
it and marches only separatrices), exhaustive unfolding trees,
numerical integration, dense graph searches, all-pairs visibility
shortening of flat geodesics, the funnel run on every chain, even one
that is already geodesic, scans over every hull side, sampled and
bisected hyperbolic searches, per-point geodesic sampling, segment
points listed all at once, group words without their elements, triangle
slimness from one numpy distance matrix per ordered pair of sides or from
every pair of samples, and cylinder decompositions from transverse ray
probes, which march each separatrix and each probe with a step loop of
their own.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from flatbundle.hyperbolic import (
    Geodesic,
    Mobius,
    _check_disk,
    busemann,
    disk_from_uhp,
    geodesic_max_busemann,
    hyp_distance,
    ideal_endpoints,
    uhp_from_disk,
)
from flatbundle.cylinders import (
    SEPARATRIX_BUDGET,
    WIDTH_TOL,
    Cylinder,
    CylinderDecomposition,
    _separatrices,
)
from flatbundle.errors import (
    DegenerateTriple,
    FlatBundleError,
    NoClosureFound,
    NoCylinders,
    NotAConnection,
    NotAGeodesic,
    NotFound,
)
from flatbundle.paths import HorizontalPiece, build_fan, build_preferred_path
from flatbundle.slimness import _canon_hol, _piece_count, _round_z, _scale
from flatbundle.surface import (
    TOL_ANGLE,
    TOL_VERTEX,
    Corner,
    FlatGeodesic,
    SaddleConnection,
    TranslationSurface,
    _chain_sleeve,
    _find_exit,
    _march,
    _shortest_in_sleeve,
    _UnionFind,
    bent_junction,
    canonical_holonomy,
    ccw_angle,
    cross,
    fold_direction,
    seg_point_dist,
    tighten_chain,
)
from flatbundle.veech import ANGLE_DEDUP, _boundary_foot, family_balls


#: polygons :func:`connect` marches through before it gives up
CONNECT_BUDGET = 20000


def connect(surface: TranslationSurface, start: Corner, w: complex) -> SaddleConnection:
    """The saddle connection of holonomy ``w`` out of ``start``, by marching.

    The straight segment is one when it ends exactly at a cone point without
    meeting one on the way.  The start direction must lie in the corner's
    wedge (measuring counterclockwise from the outgoing edge); directions
    along the far wedge boundary are rejected so each edge connection is
    traced from a single corner.  The end angle is measured to ``-w``, as
    the package measures it.  Raises :class:`NotAConnection` naming the
    reason: ``along-edge``, ``outside-wedge``, ``budget``, ``end-not-cone``
    or ``hits-cone-point``.
    """
    p, i = start
    evec = surface.edge_vec(p, i)
    phi = ccw_angle(evec, w)
    if phi < TOL_ANGLE:
        if abs(w - evec) >= TOL_VERTEX:
            raise NotAConnection(f"segment from {start} by {w}: along-edge")
        end = Corner(p, (i + 1) % surface.n_edges(p))
        return SaddleConnection(start, end, w, 0.0, surface.interior_angle(end), ())
    if phi > surface.interior_angle(start) - TOL_ANGLE:
        raise NotAConnection(f"segment from {start} by {w}: outside-wedge")

    crossings, last, t, point, j = _march(
        surface, p, -surface.vertex(p, i), 0j, w, CONNECT_BUDGET
    )
    if j is None:
        raise NotAConnection(f"segment from {start} by {w}: budget")
    if j < 0:
        # the target lies in (or on the boundary of) the last polygon
        verts = surface.polygons[last]
        j = next((k for k, v in enumerate(verts) if abs(v + t - w) < TOL_VERTEX), -1)
        if j < 0:
            raise NotAConnection(f"segment from {start} by {w}: end-not-cone")
    elif abs(point - w) >= TOL_VERTEX:
        raise NotAConnection(f"segment from {start} by {w}: hits-cone-point")
    end = Corner(last, j)
    ephi = ccw_angle(surface.edge_vec(*end), -w)
    return SaddleConnection(start, end, w, phi, ephi, crossings)


def brute_saddle_connections(surface, max_length, depth):
    """All saddle connections up to ``max_length`` by exhaustive unfolding.

    Grows, for every corner, the full tree of polygon placements reachable in
    at most ``depth`` edge crossings, keeping only placements whose crossed
    edge comes within ``max_length`` of the origin, and validates every vertex
    of every placement as a candidate endpoint by re-tracing the straight
    segment through the surface.  States are deduplicated per level: equal
    placements entered through the same edge generate equal subtrees.
    """
    by_key = {}
    polys = {p: np.array(surface.polygons[p]) for p in range(len(surface.polygons))}
    for poly in range(len(surface.polygons)):
        for vtx in range(len(surface.polygons[poly])):
            corner = Corner(poly, vtx)
            for w in _tree_candidates(surface, polys, corner, max_length, depth):
                if not canonical_holonomy(w):
                    continue
                try:
                    sc = connect(surface, corner, w)
                except NotAConnection:
                    continue
                by_key.setdefault(sc.key(), sc)
    return sorted(by_key.values(), key=lambda sc: (sc.length, sc.start, sc.key()))


def _tree_candidates(surface, polys, corner, max_length, depth):
    # states per polygon: translation + entry edge (-1 for the root)
    states = {corner.poly: (np.array([-surface.vertex(*corner)]), np.array([-1]))}
    cands = {}
    for level in range(depth + 1):
        next_states = {}
        for poly, (ts, entries) in states.items():
            verts = polys[poly]
            n = len(verts)
            placed = ts[:, None] + verts[None, :]
            absv = np.abs(placed)
            for w in placed[(absv > 1e-9) & (absv <= max_length + 1e-9)]:
                cands.setdefault((round(w.real, 8), round(w.imag, 8)), w)
            if level == depth:
                continue
            for e in range(n):
                a = placed[:, e]
                b = placed[:, (e + 1) % n]
                d = b - a
                tt = np.clip(
                    -(a.real * d.real + a.imag * d.imag) / np.abs(d) ** 2, 0.0, 1.0
                )
                ok = (np.abs(a + tt * d) <= max_length) & (entries != e)
                if not ok.any():
                    continue
                q, f = surface.gluings[(poly, e)]
                shift = surface.vertex(poly, (e + 1) % n) - surface.vertex(q, f)
                bucket = next_states.setdefault(q, ([], []))
                bucket[0].append(ts[ok] + shift)
                bucket[1].append(np.full(int(ok.sum()), f))
        states = {}
        for poly, (tlist, elist) in next_states.items():
            ts = np.concatenate(tlist)
            entries = np.concatenate(elist)
            key = np.stack(
                [np.round(ts.real, 8), np.round(ts.imag, 8), entries.astype(float)],
                axis=1,
            )
            _, idx = np.unique(key, axis=0, return_index=True)
            states[poly] = (ts[idx], entries[idx])
    return cands.values()


def integrate_hyperbolic_length(path_points):
    """Hyperbolic length of a polyline in the disk by small-chord summation."""
    total = 0.0
    for z1, z2 in zip(path_points, path_points[1:]):
        num = 2.0 * abs(z1 - z2) ** 2
        den = (1.0 - abs(z1) ** 2) * (1.0 - abs(z2) ** 2)
        total += math.acosh(1.0 + num / den)
    return total


def disk_distance_by_integration(z1, z2, steps=20000):
    """Distance in the disk by integrating the metric along the geodesic arc.

    Works through the half plane: the geodesic is a circular arc or vertical
    ray there, sampled finely and summed with the disk chord formula.
    """
    w1 = 1j * (1 + z1) / (1 - z1)
    w2 = 1j * (1 + z2) / (1 - z2)
    pts = []
    if abs(w1.real - w2.real) < 1e-12:
        ys = np.geomspace(min(w1.imag, w2.imag), max(w1.imag, w2.imag), steps)
        pts = [complex(w1.real, y) for y in ys]
    else:
        c = (abs(w1) ** 2 - abs(w2) ** 2) / (2.0 * (w1.real - w2.real))
        r = abs(w1 - c)
        a1 = math.atan2(w1.imag, w1.real - c)
        a2 = math.atan2(w2.imag, w2.real - c)
        for k in range(steps + 1):
            a = a1 + (a2 - a1) * k / steps
            pts.append(complex(c + r * math.cos(a), r * math.sin(a)))
    disk = [(w - 1j) / (w + 1j) for w in pts]
    return integrate_hyperbolic_length(disk)


def graph_distances_from(n, edges, source):
    """Dijkstra over an undirected weighted edge list; plain heap version."""
    import heapq

    adj = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    dist = [math.inf] * n
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u] + 1e-15:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v] - 1e-15:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def project_to_region(region, z):
    """Closest point of a ConvexRegion by trying the foot on every side.

    Keeps the feet that every other side accepts (to 1e-7) and returns the
    nearest; when none passes, the nearest foot overall.
    """
    if region.contains(z):
        return z
    best = None
    best_d = math.inf
    for g in region.sides:
        foot = g.foot(z)
        d = hyp_distance(z, foot)
        ok = all(h.side_of(foot) >= -1e-7 for h in region.sides if h is not g)
        if ok and d < best_d:
            best, best_d = foot, d
    if best is None:
        for g in region.sides:
            foot = g.foot(z)
            d = hyp_distance(z, foot)
            if d < best_d:
                best, best_d = foot, d
    return best


def side_beyond_by_scan(region, z):
    """The side ``z`` lies beyond, as the argmin of ``side_of`` over every
    side, or None when that minimum is not below -1e-9: the region's
    ``side_beyond`` without its rule of four sides (the side facing the
    point's direction, its two neighbours and the widest side)."""
    g = min(region.sides, key=lambda g: g.side_of(z), default=None)
    return g if g is not None and g.side_of(z) < -1e-9 else None


def center_foot_by_scan(region):
    """The region's point nearest the disk center, through
    ``side_beyond_by_scan``."""
    g = side_beyond_by_scan(region, 0j)
    return 0j if g is None else g.foot(0j)


def distinct_directions_by_scan(saddles):
    """Distinct saddle directions with their shortest holonomies: saddles
    by increasing (length, direction), each kept unless within ANGLE_DEDUP
    (mod pi) of a direction kept before it, then sorted by direction."""
    dirs = []
    for sc in sorted(saddles, key=lambda s: (s.length, s.direction)):
        th = sc.direction
        if any(
            min(abs(th - t), math.pi - abs(th - t)) < ANGLE_DEDUP for (t, _h) in dirs
        ):
            continue
        dirs.append((th, sc.holonomy))
    dirs.sort()
    return dirs


def meets_sample_by_scan(hull, xi):
    """Whether the ideal point ``xi`` lies within ANGLE_DEDUP of a hull
    vertex (a limit-set sample point), by trying every vertex."""
    return any(abs(xi - g.start) < ANGLE_DEDUP for g in hull.sides)


def boundary_foot_by_nudge(hull, xi):
    """Foot of ``xi`` on the hull side that a point just inside the circle
    toward ``xi`` lies beyond, found by ``side_beyond_by_scan``."""
    g = side_beyond_by_scan(hull, 0.999999 * xi)
    if g is None:
        raise NotFound("no hull side separates the boundary point")
    return _boundary_foot(g, xi)


def hull_clearance_by_scan(hull, xi):
    """One plus the largest Busemann value toward ``xi`` over every hull side
    without an endpoint at ``xi``; 0 for a hull with no sides."""
    return max(
        (
            geodesic_max_busemann(g, xi) + 1.0
            for g in hull.sides
            if abs(g.start - xi) >= 1e-9 and abs(g.end - xi) >= 1e-9
        ),
        default=0.0,
    )


def _reflect_through(z, xi):
    """Second ideal endpoint of the geodesic from ``z`` into ``xi``."""
    # rotate xi to the disk point 1 (uhp infinity); the geodesic through z
    # toward uhp infinity is vertical, hitting the boundary at Re(w)
    rot = cmath.exp(-1j * cmath.phase(xi))
    w = uhp_from_disk(z * rot)
    other = disk_from_uhp(complex(w.real, 0.0))
    return other / rot / abs(other / rot)


def horoball_closest_point(ball, z):
    """Nearest point of a Horoball by bisecting the Busemann level along the
    geodesic from ``z`` into the base."""
    if ball.contains(z):
        return z
    g = Geodesic(_reflect_through(z, ball.base), ball.base)
    M = g.to_axis()
    uz = math.log(abs(M.apply_uhp(uhp_from_disk(z))))
    at = lambda u: disk_from_uhp(M.inverse().apply_uhp(1j * math.exp(u)))
    f = lambda u: busemann(ball.base, at(u))
    lo_u, hi_u = uz, uz + (ball.level - busemann(ball.base, z)) + 2.0
    for _ in range(80):
        mid = 0.5 * (lo_u + hi_u)
        if f(mid) < ball.level:
            lo_u = mid
        else:
            hi_u = mid
    return at(0.5 * (lo_u + hi_u))


def horoball_separation_by_midpoint(b1, b2):
    """Signed distance between two Horoballs from the two Busemann values
    at the midpoint of the geodesic joining their bases (each function has
    unit slope along it)."""
    g = Geodesic(b1.base, b2.base)
    (mid,) = g.points([0.0])
    return (b1.level - busemann(b1.base, mid)) + (b2.level - busemann(b2.base, mid))


def clip_by_horoball(z1, z2, ball):
    """(outside, inside) lengths of the segment [z1, z2] against a Horoball.

    Samples the Busemann excess at 65 evenly spaced points, then
    bisects for the crossings on both sides of the best sample (the excess
    is concave along a geodesic).  Reports 0 inside when no sample is in the
    ball, so an intersection shorter than the sample spacing is missed.
    """
    total = hyp_distance(z1, z2)
    try:
        g = Geodesic(*ideal_endpoints(z1, z2))
    except DegenerateTriple:  # the points are too close to span a geodesic
        return (0.0, 0.0)
    M = g.to_axis()
    u1 = math.log(abs(M.apply_uhp(uhp_from_disk(z1))))
    u2 = math.log(abs(M.apply_uhp(uhp_from_disk(z2))))
    if u1 > u2:
        u1, u2 = u2, u1
    f = lambda u: busemann(ball.base, g.points([u])[0]) - ball.level
    n = 64
    us = [u1 + (u2 - u1) * k / n for k in range(n + 1)]
    vals = [f(u) for u in us]
    if max(vals) < 0.0:
        return (total, 0.0)
    kmax = max(range(n + 1), key=lambda k: vals[k])

    def _root(ulo, uhi):
        for _ in range(80):
            um = 0.5 * (ulo + uhi)
            if f(um) > 0.0:
                ulo = um
            else:
                uhi = um
        return 0.5 * (ulo + uhi)

    lo = u1 if vals[0] >= 0.0 else _root(us[kmax], u1)
    hi = u2 if vals[n] >= 0.0 else _root(us[kmax], u2)
    lo, hi = min(lo, hi), max(lo, hi)
    inside = hi - lo
    return (total - inside, inside)


# -- horocycles ---------------------------------------------------------------


def saddle_length_at_uhp(w, hol):
    """Holonomy length at an upper half plane point (stable near the boundary)."""
    x, y = w.real, w.imag
    r = math.sqrt(y)
    return math.hypot((hol.real - x * hol.imag) / r, r * hol.imag)


def rotation_uhp(psi):
    """The upper half plane form of the disk rotation z -> exp(i psi) z."""
    h = 0.5 * psi
    return Mobius.from_matrix(((math.cos(h), math.sin(h)), (-math.sin(h), math.cos(h))))


def _horocycle_at(ball, alpha):
    """Upper half plane point of the horocycle bounding ``ball``: with the base
    rotated to infinity the horocycle is Im w = e^level, and ``alpha`` in
    (-pi/2, pi/2) is the angle whose tangent is Re w / Im w there."""
    y0 = math.exp(ball.level)
    w = complex(y0 * math.tan(alpha), y0)
    return rotation_uhp(cmath.phase(ball.base)).apply_uhp(w)


def horocycle_uhp(ball, count):
    """``count`` points of the horocycle bounding ``ball``, evenly spaced in angle."""
    return tuple(
        _horocycle_at(ball, -math.pi / 2 + math.pi * (k + 0.5) / count)
        for k in range(count)
    )


def horocycle_min_length(ball, hol):
    """Minimum of the length of ``hol`` on the horocycle bounding ``ball``, by
    golden-section search (the squared length is a convex quadratic in Re w
    once the base sits at infinity)."""
    f = lambda a: saddle_length_at_uhp(_horocycle_at(ball, a), hol)
    lo, hi = -math.pi / 2, math.pi / 2
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(120):
        a1, a2 = hi - g * (hi - lo), lo + g * (hi - lo)
        if f(a1) < f(a2):
            hi = a2
        else:
            lo = a1
    return f(0.5 * (lo + hi))


# -- flat geodesics by all-pairs visibility ---------------------------------


class Corridor:
    """A sheet-aware patch of placed polygon copies in the plane.

    Nodes are placements ``(polygon, translation)``; links pair placement
    edges according to the surface gluings.  The patch is grown only through
    :meth:`grow`, so two overlapping placements on different sheets are
    separate nodes; :meth:`see` still matches the end of a march by planar
    position only.
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
        raise NotAGeodesic(f"fan around {target} did not close")

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

    def see(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int] | None:
        """Is the straight segment between vertex lifts inside the patch?

        Returns the (start occurrence vertex, end occurrence vertex) pair of
        corner occurrences actually used, or None.  The end occurrence is
        only matched by planar position, so it can lie on another sheet than
        ``b`` (see :func:`tighten_chain_dijkstra`).
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
    """Corridor containing a chain of saddle connections; returns (corridor, S, E).

    At each junction the corridor is opened around the cone point on both
    sides.
    """
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
    corridor: Corridor, S: tuple[int, int], E: tuple[int, int]
) -> tuple[FlatGeodesic, bool]:
    """Local-shortening fixpoint inside a growing corridor.

    Compute the shortest bending chain in the patch, check the angle condition
    around every pivot on the surface, and where it fails open the patch on
    the short side and repeat.  Also returns whether every chord of the
    final chain ends on the lift it was aimed at.
    """
    surface = corridor.surface
    if abs(corridor.pos(*S) - corridor.pos(*E)) < TOL_VERTEX:
        return FlatGeodesic(()), True
    # give up after 60 rounds or 4000 placements
    for _ in range(60):
        if len(corridor.nodes) > 4000:
            raise NotAGeodesic("corridor grew past the node budget")
        path = _dijkstra_pivots(corridor, S, E)
        if path is None:
            raise NotAGeodesic("endpoints are not connected in the corridor")
        pieces = _pieces_from_pivots(corridor, path)
        worst = bent_junction(surface, pieces)
        if worst is None:
            on_sheet = all(
                corridor.see_cached(a, b)[1] in corridor.star(*b)
                for a, b in zip(path, path[1:])
            )
            return FlatGeodesic(tuple(pieces)), on_sheet
        k, short_ccw = worst
        # open the corridor around the offending pivot on the short side
        occ = corridor.see_cached(path[k], path[k + 1])
        (_sn, _sj), (en, ej) = occ
        corridor.fan(en, ej, pieces[k + 1].start, ccw=short_ccw)
    raise NotAGeodesic("local shortening did not converge")


def tighten_chain_dijkstra(surface, chain):
    """Geodesic of a chain by shortest visibility paths in a growing corridor.

    The corridor is a tree of placed polygons opened on both sides of every
    junction; each round runs a Dijkstra over every vertex lift, with a
    straight-line march through the corridor as the visibility test, and
    fans the corridor open around the first pivot that fails the angle
    condition.  Raises ``NotAGeodesic`` when it does not converge.

    Returns ``(geodesic, on_sheet)``.  A march counts as reaching its target
    when it ends on any vertex at the target's planar position, which may
    be a different lift in the corridor; ``on_sheet`` is False when a chord
    of the returned chain did so.  Such a chain is a local geodesic in
    another homotopy class than the chain's, so only answers with
    ``on_sheet`` are a reference.
    """
    if not chain:
        return FlatGeodesic(()), True
    corridor, S, E = _chain_corridor(surface, list(chain))
    return _shorten(corridor, S, E)


def tighten_chain_by_funnel(surface, chain):
    """``surface.tighten_chain`` without its locally geodesic shortcut: every
    chain goes through the sleeve, the funnel and the reroute loop
    (``surface._shortest_in_sleeve``), and each piece is read off the sleeve
    by ``surface._piece``, as there (tests compare those pieces with
    ``connect``'s trace)."""
    chain = list(chain)
    if abs(sum((sc.holonomy for sc in chain), 0j)) < TOL_VERTEX:
        return FlatGeodesic(())
    sleeve, i0, j_end, _ = _chain_sleeve(surface, chain)
    return _shortest_in_sleeve(surface, sleeve, i0, j_end)


def crossing_class(surface, pieces, start, end):
    """Signed edge-crossing counts of a chain pushed off its cone points.

    The chain runs from corner ``start`` to corner ``end``; at its ends and
    junctions it is pushed off the cone point counterclockwise, from the
    corner it arrives at to the corner it leaves from.  Each crossing adds
    +1 to its edge pair when it leaves through the pair's lesser edge, -1
    otherwise.  On a surface with one cone point a loop around it crosses
    every pair once each way, so the counts depend only on the homology
    class of the chain rel its end points: two chains with the same ends
    and different counts are not homotopic.
    """
    if len(surface.cone_classes) != 1:
        raise ValueError("crossing counts need a surface with one cone point")
    counts = {}

    def add(poly, e):
        edge = (poly, e)
        pair = min(edge, surface.gluings[edge])
        counts[pair] = counts.get(pair, 0) + (1 if edge == pair else -1)

    def rotate(a, b):
        while a != b:
            add(a.poly, (a.vertex - 1) % surface.n_edges(a.poly))
            q, f = surface.gluings[(a.poly, (a.vertex - 1) % surface.n_edges(a.poly))]
            a = Corner(q, f)

    at = start
    for sc in pieces:
        rotate(at, sc.start)
        for poly, e in sc.crossings:
            add(poly, e)
        at = sc.end
    rotate(at, end)
    return {pair: c for pair, c in counts.items() if c}


# -- hyperbolic segments -------------------------------------------------------


def segment_point(z1, z2, s):
    """Point at arclength ``s`` from ``z1`` along the segment to ``z2``,
    through the ideal endpoints of its geodesic and the axis (0, inf)."""
    if abs(z1 - z2) < 1e-15:
        return z1
    g = Geodesic(*ideal_endpoints(z1, z2))
    M = g.to_axis()
    u1 = math.log(abs(M.apply_uhp(uhp_from_disk(z1))))
    u2 = math.log(abs(M.apply_uhp(uhp_from_disk(z2))))
    u = u1 + (u2 - u1) * (s / hyp_distance(z1, z2))
    return disk_from_uhp(M.inverse().apply_uhp(1j * math.exp(u)))


def segment_points(z1, z2, n):
    """The n + 1 points at arclength fractions 0, 1/n, ..., 1 from ``z1`` to
    ``z2``, listed at once: the reference for ``hyperbolic.Segment``.

    The isometry ``phi(z) = (z - z1) / (1 - conj(z1) z)`` sends ``z1`` to 0
    and ``z2`` to ``r exp(i theta)``; the point at fraction ``t`` is
    ``phi^-1(tanh(t atanh r) exp(i theta))``.
    """
    _check_disk(z1)
    _check_disk(z2)
    if abs(z1 - z2) < 1e-15:
        return [z1] * (n + 1)
    w = (z2 - z1) / (1.0 - z1.conjugate() * z2)
    r = abs(w)
    a, u, z1c = math.atanh(r), w / r, z1.conjugate()
    ps = [math.tanh((i / n) * a) * u for i in range(n + 1)]
    return [(p + z1) / (1.0 + z1c * p) for p in ps]


# -- group words --------------------------------------------------------------


def reduced_words(n_gens, depth):
    """All nonempty reduced words up to ``depth``, shortest first.

    A word is a tuple of nonzero ints: letter ``i+1`` is generator ``i``,
    ``-(i+1)`` its inverse; adjacent cancelling letters are excluded.
    """
    letters = [i + 1 for i in range(n_gens)] + [-(i + 1) for i in range(n_gens)]
    frontier = [(l,) for l in letters]
    for _ in range(depth):
        nxt = []
        for w in frontier:
            yield w
            for l in letters:
                if l != -w[-1]:
                    nxt.append(w + (l,))
        frontier = nxt


# -- fans and slimness -------------------------------------------------------


def random_fan(surface, saddles, rng):
    """``paths.random_fan`` without the early rejection of locally geodesic
    draws: every draw is tightened and offered to ``build_fan``."""
    a, b = rng.choice(saddles), rng.choice(saddles)
    if rng.random() < 0.5:
        a = a.reverse(surface)
    if rng.random() < 0.5:
        b = b.reverse(surface)
    try:
        bottom = tighten_chain(surface, [a.reverse(surface), b])
        if not bottom.pieces:
            return None
        return build_fan(surface, a, bottom)
    except FlatBundleError:
        return None


def samples_of(path, table, step):
    """Every sample of a preferred path as (base, clearance, signature, arc
    position), piece by piece, with the signatures and lengths of ``table``
    keyed as ``slimness.sample_path`` keys them.

    Sample k of a piece of ``n`` lies at arc position ``(k / n) length``
    from its lesser rounded end (horizontal) or from the start of its
    canonical holonomy (saddle); a piece run the other way computes it as
    ``((n - k) / n) length`` or reverses the forward list.  The bases of a
    horizontal piece come from ``segment_points``.
    """
    out = []
    for piece in path.pieces:
        if isinstance(piece, HorizontalPiece):
            a, b = _round_z(piece.start), _round_z(piece.end)
            g, length = table.setdefault(("h", min(a, b), max(a, b)), (len(table), piece.length))
            n = _piece_count(length, step)
            s = [((n - k if b < a else k) / n) * length for k in range(n + 1)]
            zs = segment_points(piece.start, piece.end, n)
            out += [(z, 0.0, g, sk) for z, sk in zip(zs, s)]
            continue
        hol = piece.connection.holonomy
        g, length = table.setdefault(
            ("s", _canon_hol(hol), _round_z(piece.at_base)), (len(table), piece.length)
        )
        if piece.region.kind == "ball":
            out.append((piece.at_base, 0.0, g, 0.0))
            continue
        n = _piece_count(length, step)
        t = [(k / n) * length for k in range(n + 1)]
        s = t[::-1] if _canon_hol(hol) != _round_z(hol) else t  # run backwards
        out += [(piece.at_base, min(tk, length - tk), g, sk) for tk, sk in zip(t, s)]
    return out


def _sides(family, x, y, z, geodesics, step):
    table: dict = {}
    balls = family_balls(family)
    pairs = ((x, y, geodesics[0]), (y, z, geodesics[1]), (x, z, geodesics[2]))
    sides = [
        samples_of(build_preferred_path(u, v, family, g), table, step) for u, v, g in pairs
    ]
    return sides, balls


def _rho_matrix(z1, z2):
    s1, s2 = np.sqrt(1.0 - np.abs(z1) ** 2), np.sqrt(1.0 - np.abs(z2) ** 2)
    return 2.0 * np.arcsinh(np.abs(z1[:, None] - z2[None, :]) / (s1[:, None] * s2[None, :]))


def _ball_distances(z, ball):
    bus = np.log((1.0 - np.abs(z) ** 2) / np.abs(ball.base - z) ** 2)
    return np.maximum(0.0, ball.level - bus)


def sample_distance_matrix(a, b, balls):
    """Collapsed surrogate distances between every sample of ``a`` and of
    ``b`` (lists from ``samples_of``), as one numpy matrix.

    Base travel is the cheaper of the direct hyperbolic distance and a chain
    through a single collapsed horoball; fiber clearances are added, except
    between samples of the same piece, which meet at their arc distance.
    """
    (za, ca, ga, sa), (zb, cb, gb, sb) = (
        tuple(np.array(col) for col in zip(*side)) for side in (a, b)
    )
    d = _rho_matrix(za, zb)
    for ball in balls:
        np.minimum(d, _ball_distances(za, ball)[:, None] + _ball_distances(zb, ball)[None, :], out=d)
    d += ca[:, None] + cb[None, :]
    same = ga[:, None] == gb[None, :]
    if same.any():
        d = np.where(same, np.minimum(d, np.abs(sa[:, None] - sb[None, :])), d)
    return d


def triangle_slimness(family, x, y, z, geodesics, *, step):
    """Thinness of a preferred-path triangle from six numpy distance
    matrices, one per ordered pair of sides."""
    sides, balls = _sides(family, x, y, z, geodesics, step)
    return max(
        float(
            np.minimum(
                sample_distance_matrix(sides[i], sides[j], balls).min(axis=1),
                sample_distance_matrix(sides[i], sides[k], balls).min(axis=1),
            ).max()
        )
        for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1))
    )


def sample_distance(p, q):
    """One entry of ``sample_distance_matrix`` from the scalar expressions
    of ``flatbundle.slimness``; ``p`` and ``q`` are ``samples_of`` entries,
    each followed by its list of ball distances."""
    (zp, cp, gp, sp, hp), (zq, cq, gq, sq, hq) = p, q
    d = 2.0 * math.asinh(abs(zp - zq) / (_scale(zp) * _scale(zq)))
    for dp, dq in zip(hp, hq):
        d = min(d, dp + dq)
    d += cp + cq
    return min(d, abs(sp - sq)) if gp == gq else d


def nearest_distances(a, b, balls):
    """For each sample of ``a``, the least ``sample_distance`` to a sample of
    ``b``, comparing every pair."""
    a, b = ([(*p, [ball.distance_to_point(p[0]) for ball in balls]) for p in side] for side in (a, b))
    return [min(sample_distance(p, q) for q in b) for p in a]


def triangle_slimness_by_pairs(family, x, y, z, geodesics, *, step):
    """Thinness of a preferred-path triangle comparing every pair of samples
    in pure Python, with the kernel's scalar expressions."""
    sides, balls = _sides(family, x, y, z, geodesics, step)
    return max(
        max(nearest_distances(sides[i], sides[j] + sides[k], balls))
        for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1))
    )


# -- cylinder decompositions by transverse rays --------------------------------

SIDE_EPS = 1e-7  # transverse offset when stepping off a boundary leaf
CONTINUE_TOL = 1e-6  # angular slack; separatrices at a cone point are 2*pi apart


def _continuations(surface, saddles):
    """Same-circle pairs ``((k, side), (k2, side))``, read off at the cone points.

    Past the end of saddle ``k`` its left (right) side continues along the
    saddle leaving pi clockwise (counterclockwise) of its arrival direction.
    """
    leaving = {}
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


def along_edges(surface, poly, a, b):
    """Edges of polygon ``poly`` that both polygon-local points ``a`` and
    ``b`` lie within ``TOL_VERTEX`` of: a piece from ``a`` to ``b`` runs
    along each of them."""
    return [
        e
        for e in range(surface.n_edges(poly))
        if max(
            seg_point_dist(surface.vertex(poly, e), surface.vertex(poly, e + 1), z)
            for z in (a, b)
        ) < TOL_VERTEX
    ]


def _barrier_segments(surface, developed):
    """Per-polygon local segments of the developed saddles, those along a
    glued edge mirrored into the partner polygon."""
    barriers = {}
    for k, segs in enumerate(developed):
        for (poly, t, a, b) in segs:
            la, lb = a - t, b - t
            barriers.setdefault(poly, []).append((k, la, lb))
            for e in along_edges(surface, poly, la, lb):
                q, _f, shift = surface.across(poly, e)
                barriers.setdefault(q, []).append((k, la - shift, lb - shift))
    return barriers


def _steps(surface, poly, z0, W):
    """The pieces of the segment ``[z0, W]`` from polygon ``poly`` placed at
    0, marched up to the first cone point it meets or to ``W``: ``(poly,
    translation, entry, exit)`` with the points in the start polygon's
    frame and ``exit`` None where the segment ends inside a polygon."""
    out = []
    t, c, entry = 0j, z0, -1
    for _ in range(SEPARATRIX_BUDGET):
        ex = _find_exit(surface, poly, t, c, W, entry)
        if ex is None or ex.s * abs(W - c) >= abs(W - c) - TOL_VERTEX:
            out.append((poly, t, c, None))
            return out
        out.append((poly, t, c, ex.point))
        if ex.at_vertex >= 0:
            return out
        poly, entry, t = surface.across(poly, ex.edge, t)
        c = ex.point
    return out


def develop(surface, sc, u, max_trace):
    """The pieces of the separatrix ``sc`` leaving in direction ``u``, as
    :func:`_steps` marches them again up to ``max_trace``; an edge is its
    own one piece.  The march must pass through the record's polygons."""
    p, i = sc.start
    v0, evec = surface.vertex(p, i), surface.edge_vec(p, i)
    if ccw_angle(evec, u) < TOL_ANGLE:
        return [(p, 0j, v0, v0 + evec)]
    steps = _steps(surface, p, v0, v0 + u * max_trace)
    polys = [p] + [surface.gluings[c][0] for c in sc.crossings]
    assert [st[0] for st in steps] == polys and steps[-1][3] is not None, sc
    return steps


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


def _ray_to_barrier(surface, barriers, poly, z0, n, max_dist):
    """(distance, saddle index) of the first barrier the ray from (poly, z0)
    meets, or None."""
    for (q, t, a_pl, b_pl) in _steps(surface, poly, z0, z0 + n * max_dist):
        if b_pl is None:
            b_pl = a_pl + n * max_dist
        best = None
        for (k, sa, sb) in barriers.get(q, ()):
            hit = _seg_seg(a_pl - t, b_pl - t, sa, sb)
            if hit is not None and (best is None or hit < best[0]):
                best = (hit, k)
        if best is not None:
            s_loc, k = best
            return abs(a_pl + s_loc * (b_pl - a_pl) - z0), k
    return None


def _inside(surface, poly, z, margin=1e-12):
    verts = surface.polygons[poly]
    edges = zip(verts, verts[1:] + verts[:1])
    return all(cross(b - a, z - a) >= -margin * abs(b - a) for a, b in edges)


def _locate(surface, poly, t, plane_pt):
    """Polygon-local coordinates of a plane point near a developed segment:
    in the developing placement or in a neighbour across one of its edges."""
    local = plane_pt - t
    if _inside(surface, poly, local):
        return poly, local
    for e in range(surface.n_edges(poly)):
        q, _f, shift = surface.across(poly, e)
        if _inside(surface, q, local - shift):
            return q, local - shift
    return None, None


def trace_direction_rays(surface, theta, max_trace):
    """``cylinders.trace_direction`` assembled from transverse ray probes.

    Six rays per separatrix piece, started ``SIDE_EPS`` off the leaf on each
    side, give each side's width and the side across the cylinder; the
    angle rule at the cone points (``_continuations``) joins the sides of
    one boundary circle.  Same separatrices, orders and output type.
    """
    theta = fold_direction(theta)
    u = cmath.exp(1j * theta)
    found = _separatrices(surface, u, max_trace)
    if isinstance(found, NoClosureFound):
        return found
    saddles = sorted(found, key=lambda sc: (round(sc.length, 9), sc.key()))
    developed = [develop(surface, sc, u, max_trace) for sc in saddles]
    n = 1j * u
    barriers = _barrier_segments(surface, developed)

    uf = _UnionFind()
    width_of = {}
    max_width = surface.area / min(sc.length for sc in saddles) + 1.0
    for k, segs in enumerate(developed):
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
                raise NoCylinders(f"no boundary across saddle {k} side {side}")
            nearest = min(h[0] for h in hits)
            width_of[(k, side)] = nearest + SIDE_EPS
            for (d, kk) in hits:
                if d <= nearest + 1e-9:
                    uf.union((k, side), (kk, -side))
    for a, b in _continuations(surface, saddles):
        uf.union(a, b)

    groups = {}
    for k in range(len(saddles)):
        for side in (+1, -1):
            groups.setdefault(uf.find((k, side)), []).append((k, side))
    cylinders = []
    for sides in groups.values():
        widths = [width_of[s] for s in sides]
        if max(widths) - min(widths) > WIDTH_TOL:
            raise NoCylinders(f"inconsistent widths {min(widths)}..{max(widths)}")
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
    spine_groups = {}
    for k in range(len(saddles)):
        spine_groups.setdefault(spine_uf.find(("s", k)), []).append(k)
    spines = tuple(tuple(sorted(g)) for g in sorted(spine_groups.values()))
    return CylinderDecomposition(tuple(saddles), tuple(cylinders), spines)
