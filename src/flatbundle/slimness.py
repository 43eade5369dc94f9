"""Empirical slimness measurements on collapsed preferred-path triangles.

Paths are discretized into samples carrying a base point in the disk and a
fiber clearance; distances between samples use a single-chain collapsed
surrogate: either the direct hyperbolic base distance or a shortcut through
one collapsed horoball, plus the fiber clearances.  The surrogate upper-bounds
the collapsed metric, so measured slimness constants are conservative.

The nearest sample of another path is found without comparing every pair:
the distance from a point to the samples of a geodesic segment is convex
along it, so the samples next to the point's foot are the only candidates,
and the samples of a saddle piece share one base point.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import NamedTuple

from .errors import FlatBundleError
from .hyperbolic import segment_points
from .paths import (
    FiberPoint,
    HorizontalPiece,
    build_preferred_path,
    draw_until,
)
from .surface import FlatGeodesic, tighten_chain
from .veech import family_balls, region_for

DEFAULT_STEP = 0.05
_MAX_SAMPLES_PER_PIECE = 400
MAX_ATTEMPTS_FACTOR = 60  # a sweep gives up after this many draws per triangle
_QUANTILES = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)


# -- sampling ----------------------------------------------------------------


def _scale(z: complex) -> float:
    # hyp_distance(z, q) is 2 asinh(|z - q| / (_scale(z) _scale(q)))
    return math.sqrt(1.0 - abs(z) ** 2)


def _ball_distance(z: complex, ball) -> float:
    # Horoball.distance_to_point without the argument checks
    return max(0.0, ball.level - math.log((1.0 - abs(z) ** 2) / abs(ball.base - z) ** 2))


class _Segment:
    """The samples of a horizontal piece from ``z1`` to ``z2``.

    In the frame ``phi(z) = (z - z1) / (1 - conj(z1) z)``, turned so that
    ``phi(z2) = r`` is positive, the piece is [0, r] on the real diameter
    and sample k lies at distance ``2 atanh(r) k / n`` from 0.
    """

    def __init__(self, z1: complex, z2: complex, points: list):
        w = (z2 - z1) / (1.0 - z1.conjugate() * z2)
        self.r = abs(w)
        self.z1, self.z1c, self.turn = z1, z1.conjugate(), w.conjugate() / self.r
        self.end = 2.0 * self.r / (1.0 + self.r * self.r)  # tanh of the length
        self.per_unit = (len(points) - 1) / math.atanh(self.r)  # samples per atanh
        self.points = points  # (base, scale) of each sample

    def nearest(self, z: complex) -> list:
        """The samples that can be nearest to ``z``: its foot lies at
        distance ``atanh(2 Re w / (1 + |w|^2))`` from z1, w its frame image."""
        w = (z - self.z1) / (1.0 - self.z1c * z) * self.turn
        v = 2.0 * w.real / (1.0 + w.real * w.real + w.imag * w.imag)
        if v <= 0.0:
            return self.points[:1]
        if v >= self.end:
            return self.points[-1:]
        k = int(0.5 * math.atanh(v) * self.per_unit)
        return self.points[k : k + 2]

    def deepest(self, base: complex) -> list:
        """The samples that can be deepest toward the ideal point ``base``:
        for ``e^{i alpha}`` its frame image, the Busemann function along the
        real diameter peaks at ``x = cos(alpha) / (1 + |sin(alpha)|)``."""
        e = (base - self.z1) / (1.0 - self.z1c * base) * self.turn
        x = e.real / (abs(e) + abs(e.imag))
        if x <= 0.0:
            return self.points[:1]
        if x >= self.r:
            return self.points[-1:]
        k = int(math.atanh(x) * self.per_unit)
        return self.points[k : k + 2]


class SampleSet(NamedTuple):
    """Discretization of one collapsed preferred path, indexed for
    nearest-sample queries."""

    runs: list  # (base, scale, sig, [(clearance, arc position)]) per sample
    # of a horizontal piece, and per saddle piece, whose samples share a base
    segments: list  # _Segment per horizontal piece of positive length
    points: list  # (base, scale) of each saddle piece and zero-length horizontal piece
    arcs: dict  # piece signature -> sorted arc positions of its samples
    horo: tuple  # per collapsed ball, the least distance of a sample to it


def _canon_hol(hol: complex) -> tuple:
    r, i = round(hol.real, 9) + 0.0, round(hol.imag, 9) + 0.0
    if r < 0 or (r == 0 and i < 0):
        return (-r + 0.0, -i + 0.0, True)
    return (r, i, False)


def _round_z(z: complex) -> tuple:
    return (round(z.real, 9) + 0.0, round(z.imag, 9) + 0.0)


def _piece_count(length: float, step: float) -> int:
    return min(_MAX_SAMPLES_PER_PIECE, max(1, math.ceil(length / step)))


def sample_path(path, table: dict, balls, *, step: float = DEFAULT_STEP) -> SampleSet:
    """Discretize a preferred path at arc-length ``step`` in the collapsed model.

    ``table`` numbers the pieces by signature, shared between the paths
    compared, so identical pieces compare at arc distance.  The set keeps
    its least distance to each of the collapsed ``balls``.
    """
    runs, segments, points, arcs = [], [], [], []
    for piece in path.pieces:
        length = piece.length
        if isinstance(piece, HorizontalPiece):
            a, b = _round_z(piece.start), _round_z(piece.end)
            g = table.setdefault(("h", min(a, b), max(a, b)), len(table))
            n = _piece_count(length, step)
            pts = [(z, _scale(z)) for z in segment_points(piece.start, piece.end, n)]
            s = [(1 - i / n) * length if b < a else (i / n) * length for i in range(n + 1)]
            runs += [(z, sz, g, [(0.0, si)]) for (z, sz), si in zip(pts, s)]
            if pts[0] == pts[-1]:
                points.append(pts[0])
            else:
                segments.append(_Segment(piece.start, piece.end, pts))
        else:
            r, i2, flip = _canon_hol(piece.connection.holonomy)
            g = table.setdefault(("s", (r, i2), _round_z(piece.at_base)), len(table))
            if piece.region.kind == "ball":
                # parabolic saddle: collapses into the spine
                s = [0.0]
                cs = [(0.0, 0.0)]
            else:
                n = _piece_count(length, step)
                t = [(i / n) * length for i in range(n + 1)]
                s = [length - ti if flip else ti for ti in t]
                cs = [(min(ti, length - ti), si) for ti, si in zip(t, s)]
            q = (piece.at_base, _scale(piece.at_base))
            runs.append((*q, g, cs))
            points.append(q)
        arcs.append((g, s))
    horo = tuple(
        min(
            _ball_distance(z, ball)
            for z, _ in points + [q for seg in segments for q in seg.deepest(ball.base)]
        )
        for ball in balls
    )
    return SampleSet(runs, segments, points, _sorted_arcs(arcs), horo)


# -- collapsed sample distances ----------------------------------------------


def _sorted_arcs(pairs) -> dict:
    # signature -> sorted arc positions, from (signature, positions) pairs
    arcs: dict = {}
    for g, s in pairs:
        arcs.setdefault(g, []).extend(s)
    for s in arcs.values():
        s.sort()
    return arcs


def _union(sets: list) -> SampleSet:
    # the target of the queries: every sample of ``sets`` (no runs needed)
    return SampleSet(
        [],
        [seg for t in sets for seg in t.segments],
        list(dict.fromkeys(q for t in sets for q in t.points)),
        _sorted_arcs(item for t in sets for item in t.arcs.items()),
        tuple(map(min, zip(*(t.horo for t in sets)))),
    )


def _base_distance(z: complex, sz: float, target: SampleSet, balls, cap: float) -> float:
    """Least base travel from ``z`` to a sample of ``target``: the direct
    distance or a detour through one collapsed ball.  Once the running
    minimum is at most ``cap`` it is returned as it stands.

    The ball term separates: ``min_q (d(z, ball) + d(q, ball))`` is
    ``d(z, ball)`` plus the target's least distance to the ball.
    """
    best = math.inf
    for q, sq in target.points:
        d = 2.0 * math.asinh(abs(z - q) / (sz * sq))
        if d < best:
            best = d
    for seg in target.segments:
        if best <= cap:
            return best
        for q, sq in seg.nearest(z):
            d = 2.0 * math.asinh(abs(z - q) / (sz * sq))
            if d < best:
                best = d
    if best <= cap:
        return best
    for ball, m in zip(balls, target.horo):
        if m < best:
            d = _ball_distance(z, ball) + m
            if d < best:
                best = d
    return best


def _arc_distance(s: float, arcs: list) -> float:
    k = bisect.bisect_left(arcs, s)
    d = abs(s - arcs[k]) if k < len(arcs) else math.inf
    return min(d, abs(s - arcs[k - 1])) if k else d


def _farthest(a: SampleSet, target: SampleSet, balls, floor: float) -> float:
    """The larger of ``floor`` and the largest distance from a sample of
    ``a`` to its nearest sample of ``target``.

    Fiber clearances are added to the base travel, except between samples of
    the same piece, which meet at their arc distance; the nearest sample of
    a saddle piece is at one of its ends, where the clearance is 0.  A
    sample already within ``floor`` of ``target`` is not measured further.
    """
    out = floor
    for z, sz, g, cs in a.runs:
        arcs = target.arcs.get(g)
        travel = None
        for c, s in cs:
            arc = _arc_distance(s, arcs) if arcs else math.inf
            if arc <= out:
                continue
            if travel is None:
                # a run of one sample has no clearance, so it is settled
                # once the base travel is at most out
                cap = out if len(cs) == 1 else -math.inf
                travel = _base_distance(z, sz, target, balls, cap)
            out = max(out, min(travel + c, arc))
    return out


# -- triangle slimness -------------------------------------------------------


def triangle_slimness(
    family,
    x: FiberPoint,
    y: FiberPoint,
    z: FiberPoint,
    sides,
    *,
    step: float = DEFAULT_STEP,
) -> float:
    """Thinness constant of one collapsed preferred-path triangle.

    ``sides`` holds the flat geodesics of the sides (x,y), (y,z), (x,z).
    Returns the max over sides of the max sample distance to the union of the
    other two sides.
    """
    table: dict = {}
    balls = family_balls(family)
    sets = [
        sample_path(build_preferred_path(u, v, family, g), table, balls, step=step)
        for (u, v), g in zip(((x, y), (y, z), (x, z)), sides)
    ]
    delta = 0.0
    for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        delta = _farthest(sets[i], _union([sets[j], sets[k]]), balls, delta)
    return delta


# -- sweep harness -----------------------------------------------------------


class SlimnessReport(NamedTuple):
    """Deterministic summary of a randomized slimness sweep."""

    samples: int
    delta_max: float
    delta_quantiles: dict
    per_triangle: tuple
    attempts: int  # random draws made
    rejected: dict  # draws dropped, counted by reason


def _quantiles(values) -> dict:
    """Quantiles of ``values`` by linear interpolation between the order
    statistics, computed as numpy's default ``linear`` method does."""
    if not values:
        return {}
    xs = sorted(values)
    out = {}
    for q in _QUANTILES:
        at = (len(xs) - 1) * q
        k = math.floor(at)
        lo, hi = xs[k], xs[min(k + 1, len(xs) - 1)]
        t = at - k
        diff = hi - lo
        out[f"q{int(100 * q):02d}"] = hi - diff * (1 - t) if t >= 0.5 else lo + diff * t
    return out


def _fmt4(x: float) -> str:
    s = f"{x:.4f}"
    return "0.0000" if s == "-0.0000" else s


def _short_key(sc) -> str:
    w = sc.holonomy
    return f"({sc.start.poly}.{sc.start.vertex}|{_fmt4(w.real)},{_fmt4(w.imag)})"


def random_triangle_chains(surface, saddles, rng):
    """Chains of a random preferred-path triangle, or None if not viable."""
    a = rng.choice(saddles)
    if rng.random() < 0.5:
        a = a.reverse(surface)
    cls = surface.class_of(a.end)
    pool = [sc for sc in saddles if surface.class_of(sc.start) is cls]
    pool += [sc.reverse(surface) for sc in saddles if surface.class_of(sc.end) is cls]
    if not pool:
        return None
    b = rng.choice(pool)
    try:
        third = tighten_chain(surface, [a, b])
    except FlatBundleError:
        return None
    return a, b, third


def slimness_sweep(
    surface,
    family,
    saddles,
    *,
    count: int,
    seed: int,
    step: float = DEFAULT_STEP,
) -> SlimnessReport:
    """Measure slimness over randomized preferred-path triangles."""
    rng = random.Random(seed)

    def draw():
        tri = random_triangle_chains(surface, saddles, rng)
        if tri is None:
            return None
        a, b, third = tri
        ra = region_for(family, a.direction)
        rb = region_for(family, b.direction)
        bz = (
            region_for(family, third.pieces[-1].direction).anchor
            if third.pieces
            else ra.anchor
        )
        x = FiberPoint(ra.anchor, a.start)
        y = FiberPoint(rb.anchor, a.end)
        z = FiberPoint(bz, b.end)
        sides = (FlatGeodesic((a,)), FlatGeodesic((b,)), third)
        return _short_key(a) + "+" + _short_key(b), triangle_slimness(
            family, x, y, z, sides, step=step
        )

    per_triangle, attempts, rejected = draw_until(
        draw, count, count * MAX_ATTEMPTS_FACTOR if saddles else 0, "noTriangle"
    )
    deltas = [delta for _, delta in per_triangle]
    return SlimnessReport(
        samples=len(deltas),
        delta_max=max(deltas) if deltas else 0.0,
        delta_quantiles=_quantiles(deltas),
        per_triangle=tuple(per_triangle),
        attempts=attempts,
        rejected=rejected,
    )


def stability_split(report: SlimnessReport) -> tuple[float, float]:
    """(full-sweep delta max, second-half delta max) for trend checks."""
    values = [v for _, v in report.per_triangle]
    if not values:
        return 0.0, 0.0
    half = values[len(values) // 2 :]
    return max(values), max(half) if half else 0.0
