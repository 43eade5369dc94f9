"""Slow independent reference implementations used to check fast code paths.

Everything here favors obviousness over speed: exhaustive unfolding trees,
numerical integration, dense graph searches, sampled and bisected
hyperbolic searches.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from flatbundle.hyperbolic import (
    Geodesic,
    busemann,
    disk_from_uhp,
    hyp_distance,
    ideal_endpoints,
    uhp_from_disk,
)
from flatbundle.surface import (
    Corner,
    SaddleConnection,
    canonical_holonomy,
    trace_segment,
)


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
                res = trace_segment(surface, corner, w)
                if res.ok:
                    sc = SaddleConnection(
                        corner, res.end, w, res.start_phi, res.end_phi, res.crossings
                    )
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


def clip_by_horoball(z1, z2, ball):
    """(outside, inside) lengths of the segment [z1, z2] against a Horoball.

    Samples the Busemann excess at 65 evenly spaced points, then
    bisects for the crossings on both sides of the best sample (the excess
    is concave along a geodesic).  Reports 0 inside when no sample is in the
    ball, so an intersection shorter than the sample spacing is missed.
    """
    total = hyp_distance(z1, z2)
    if total < 1e-15:
        return (0.0, 0.0)
    g = Geodesic(*ideal_endpoints(z1, z2))
    M = g.to_axis()
    u1 = math.log(abs(M.apply_uhp(uhp_from_disk(z1))))
    u2 = math.log(abs(M.apply_uhp(uhp_from_disk(z2))))
    if u1 > u2:
        u1, u2 = u2, u1
    f = lambda u: busemann(ball.base, g.point(u)) - ball.level
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
