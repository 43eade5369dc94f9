"""The bundle model over the disk: preferred paths, collapsed-length
accounting, fans, and combinatorial paths.

A point of the bundle pairs a disk point (the base) with a cone-point lift
(the fiber position).  Preferred paths alternate horizontal geodesics in the
base with saddle connections traversed in the fiber over the point assigned
to their direction by the horoball family.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .cylinders import trace_direction
from .errors import (
    FlatBundleError,
    MissingHoroRegion,
    NoCylinders,
    NotAFan,
    NotFound,
)
from .hyperbolic import hyp_distance, saddle_length_at, segment_clip_by_horoball
from .surface import (
    Corner,
    FlatGeodesic,
    SaddleConnection,
    TranslationSurface,
    cross,
    fold_direction,
    is_local_geodesic,
    tighten_chain,
)
from .veech import HoroRegion, family_balls, family_key, region_for


# -- preferred paths ----------------------------------------------------------


class FiberPoint(NamedTuple):
    """A cone-point lift in the fiber over a disk point."""

    base: complex
    corner: Corner


class HorizontalPiece(NamedTuple):
    """A base geodesic segment traversed at a fixed cone-point fiber."""

    start: complex
    end: complex
    fiber: Corner

    @property
    def length(self) -> float:
        return hyp_distance(self.start, self.end)


class SaddlePiece(NamedTuple):
    """A saddle connection traversed in the fiber over ``at_base``."""

    connection: SaddleConnection
    at_base: complex
    region: HoroRegion

    @property
    def length(self) -> float:
        return saddle_length_at(self.at_base, self.connection.holonomy)


class PreferredPath(NamedTuple):
    """Alternating horizontal and saddle pieces joining two fiber points."""

    pieces: tuple

    @property
    def d_length(self) -> float:
        return sum(p.length for p in self.pieces)


def build_preferred_path(
    x: FiberPoint, y: FiberPoint, family: dict, geodesic: FlatGeodesic
) -> PreferredPath:
    """Preferred path from x to y along the flat geodesic from x.corner to
    y.corner.

    The geodesic's pieces become saddle pieces over the base points the
    horoball family assigns to their directions, joined by horizontal pieces.
    """
    pieces: list = []
    prev_base = x.base
    prev_corner = x.corner
    for sc in geodesic.pieces:
        try:
            reg = region_for(family, sc.direction)
        except NotFound as exc:
            raise MissingHoroRegion(
                f"direction {sc.direction:.8f} missing from the horoball family"
            ) from exc
        pieces.append(HorizontalPiece(prev_base, reg.anchor, prev_corner))
        pieces.append(SaddlePiece(sc, reg.anchor, reg))
        prev_base = reg.anchor
        prev_corner = sc.end
    pieces.append(HorizontalPiece(prev_base, y.base, prev_corner))
    return PreferredPath(tuple(pieces))


def build_direction_graphs(
    surface: TranslationSurface, family: dict, *, max_trace: float = 40.0
) -> dict:
    """Cylinder decompositions of every ball direction of a horoball family.

    Keyed like the family.  Each key maps to what ``trace_direction``
    returned for its direction: the CylinderDecomposition, or the
    NoClosureFound value when the separatrices do not close within
    ``max_trace``; a direction whose cylinders fail to assemble maps to the
    NoCylinders it raised.
    """
    graphs = {}
    for key, reg in family.items():
        if reg.kind != "ball":
            continue
        try:
            graphs[key] = trace_direction(surface, reg.theta, max_trace)
        except NoCylinders as exc:
            graphs[key] = exc
    return graphs


def collapsed_length(path: PreferredPath, family: dict) -> float:
    """Length of the path after collapsing horoball preimages onto trees.

    Horizontal sub-segments inside a horoball would contribute the tree
    distance between their entry and exit fiber positions; that is zero,
    because the fiber is a fixed cone point along a horizontal piece.
    Parabolic saddle pieces lie in a spine and contribute zero; everything
    else contributes its full length.  The result never exceeds the
    uncollapsed length.  Each horizontal piece is clipped once, against
    every ball of the family: the clip maps the segment onto the axis once
    and then reads each ball's interval in closed form.
    """
    balls = family_balls(family)
    total = 0.0
    for piece in path.pieces:
        if isinstance(piece, SaddlePiece):
            if piece.region.kind != "ball":
                total += piece.length
            continue
        full = piece.length
        inside_sum = 0.0
        for inside in segment_clip_by_horoball(piece.start, piece.end, balls):
            if inside > 1e-12:
                inside_sum += inside
        total += full - min(inside_sum, full)
    return total


# -- fans ---------------------------------------------------------------------


class Fan(NamedTuple):
    """A triangle with two single-connection sides meeting at the apex.

    ``bottom`` is the geodesic side; ``taus`` are the connections from the
    apex (where every tau starts) to the bottom junctions (taus[0] and
    taus[-1] are the two single sides).  Consecutive taus cut the fan into
    Euclidean triangles.
    """

    bottom: tuple[SaddleConnection, ...]
    taus: tuple[SaddleConnection, ...]

    @property
    def k(self) -> int:
        return len(self.bottom)

    @property
    def top_start(self) -> SaddleConnection:
        return self.taus[0]

    @property
    def top_end(self) -> SaddleConnection:
        return self.taus[-1]

    def triangles(self) -> tuple:
        return tuple(
            (self.taus[i], self.bottom[i], self.taus[i + 1])
            for i in range(self.k)
        )


def _make_fan(surface, taus, bottom) -> Fan:
    for i, sc in enumerate(bottom):
        residual = abs(taus[i].holonomy + sc.holonomy - taus[i + 1].holonomy)
        if residual > 1e-7:
            raise NotAFan(f"triangle {i} does not close (residual {residual})")
    area2 = sum(
        cross(taus[i].holonomy, bottom[i].holonomy) for i in range(len(bottom))
    )
    if area2 < 0.0:
        bottom = [sc.reverse(surface) for sc in reversed(bottom)]
        taus = list(reversed(taus))
    # every cut triangle must be a genuine (positively oriented) Euclidean
    # triangle, otherwise the input was a degenerate triangle, not a fan
    for i, sc in enumerate(bottom):
        if cross(taus[i].holonomy, sc.holonomy) <= 1e-9:
            raise NotAFan(f"triangle {i} is degenerate")
    # the tiling must be edge-to-edge: the wedge the two triangles fill on
    # the apex side of each interior junction is at least pi, otherwise the
    # union is immersed rather than embedded and the input was not a
    # nondegenerate triangle
    def _ang(u: complex, v: complex) -> float:
        return math.atan2(abs(cross(u, v)), u.real * v.real + u.imag * v.imag)

    for i in range(len(bottom) - 1):
        wedge = _ang(-taus[i + 1].holonomy, -bottom[i].holonomy) + _ang(
            -taus[i + 1].holonomy, bottom[i + 1].holonomy
        )
        if wedge < math.pi - 1e-9:
            raise NotAFan(f"junction {i} wedge below pi (fan not embedded)")
    return Fan(tuple(bottom), tuple(taus))


def build_fan(
    surface: TranslationSurface,
    first_side: SaddleConnection,
    bottom: FlatGeodesic,
) -> Fan:
    """Fan with apex ``first_side.start`` over the geodesic ``bottom``.

    ``first_side`` joins the apex to the start of the bottom; the remaining
    apex-to-junction connections are computed by tightening and must each be
    a single saddle connection.
    """
    if not bottom.pieces:
        raise NotAFan("empty bottom side")
    taus = [first_side]
    for sc in bottom.pieces:
        try:
            g = tighten_chain(surface, [taus[-1], sc])
        except FlatBundleError as exc:
            raise NotAFan(f"apex-to-junction geodesic failed: {exc}") from exc
        if len(g.pieces) != 1:
            raise NotAFan(
                f"apex-to-junction geodesic has {len(g.pieces)} pieces"
            )
        taus.append(g.pieces[0])
    return _make_fan(surface, taus, list(bottom.pieces))


def reverse_pairs(surface: TranslationSurface, saddles) -> list:
    """Each saddle connection with its reverse, ``(sc, sc.reverse(surface))``:
    the table that the random draws pick from."""
    return [(sc, sc.reverse(surface)) for sc in saddles]


def random_fan(surface: TranslationSurface, pairs, rng) -> Fan | None:
    """A fan over a randomly drawn triangle, or None when the draw is no fan.

    Draws two saddle connections ``a`` and ``b`` from ``pairs`` (a
    ``reverse_pairs`` table), then one reversal coin for each; the fan has
    apex ``a.start`` over the geodesic tightened from ``a`` reversed
    followed by ``b``. When that chain is already locally geodesic it is its
    own geodesic, so the bottom starts with ``a`` reversed and the triangle
    is degenerate: the draw is rejected before anything is tightened.
    :func:`tighten_chain` makes the same test and returns such a chain as
    it stands.
    """
    (a, a_rev), (b, b_rev) = rng.choice(pairs), rng.choice(pairs)
    if rng.random() < 0.5:
        a, a_rev = a_rev, a
    if rng.random() < 0.5:
        b = b_rev
    chain = [a_rev, b]
    try:
        if is_local_geodesic(surface, chain):
            return None
        bottom = tighten_chain(surface, chain)
        if not bottom.pieces:
            return None
        return build_fan(surface, a, bottom)
    except FlatBundleError:
        return None


class StructureReport(NamedTuple):
    """Cyclic-order check of the ideal vertices of a fan."""

    ok: bool
    offending: tuple[int, ...]


def check_structure_lemma(fan: Fan) -> StructureReport:
    """Verify the counterclockwise cyclic order of the ideal fan vertices.

    The expected chain is top_start < tau_1 < ... < tau_{k-1} < top_end <
    bottom_k <= ... <= bottom_1 (< top_start again); equalities are allowed
    only between parallel bottom connections.  Disjointness of the ideal
    triangle interiors follows from this ordering.
    """
    k = fan.k
    hols = (
        [fan.taus[0].holonomy]
        + [fan.taus[i].holonomy for i in range(1, k)]
        + [fan.taus[k].holonomy]
        + [fan.bottom[i].holonomy for i in range(k - 1, -1, -1)]
    )
    # position along the boundary circle in the direction identification,
    # measured from the first vertex (doubled angle, so the pi-wrap is seamless)
    dirs = [fold_direction(math.atan2(w.imag, w.real)) for w in hols]
    a0 = (2.0 * dirs[0]) % (2.0 * math.pi)
    pos = [((2.0 * d) % (2.0 * math.pi) - a0) % (2.0 * math.pi) for d in dirs]
    pos[0] = 0.0
    offending = []
    for i in range(1, len(pos)):
        gap = pos[i] - pos[i - 1]
        strict = i <= k + 1  # entries through top_end must strictly increase
        if strict:
            if gap <= 1e-12:
                offending.append(i)
        else:
            if gap < -1e-9:
                offending.append(i)
    return StructureReport(not offending, tuple(offending))


# -- combinatorial paths ------------------------------------------------------


class CombinatorialPath(NamedTuple):
    """A hop sequence through the horoball family."""

    keys: tuple[float, ...]

    @property
    def length(self) -> int:
        return max(0, len(self.keys) - 1)


JUMP_RADIUS = 2.0


def family_adjacency(family: dict) -> dict:
    """The hop graph of ``combinatorial_path``: each key of the family to
    the set of keys one horizontal jump away."""
    keys = sorted(family.keys())
    adj: dict = {k: set() for k in keys}
    n = len(keys)
    for i, k in enumerate(keys):
        adj[k].add(keys[(i + 1) % n])
        adj[keys[(i + 1) % n]].add(k)
    # horizontal jumps between regions with nearby anchor fibers
    for i in range(n):
        for j in range(i + 1, n):
            a, b = family[keys[i]], family[keys[j]]
            if hyp_distance(a.anchor, b.anchor) <= JUMP_RADIUS:
                adj[keys[i]].add(keys[j])
                adj[keys[j]].add(keys[i])
    return adj


def combinatorial_path(
    family: dict, start_theta: float, end_theta: float, adjacency: dict
) -> CombinatorialPath:
    """Shortest hop path between two directions of the horoball family.

    Moves are horizontal jumps between adjacent regions (consecutive in the
    circular direction order, or with anchors within a bounded distance).
    Consecutive regions are always adjacent, so the breadth-first search
    always reaches the target.  ``adjacency`` is ``family_adjacency(family)``,
    built once by a caller asking for many paths.
    """
    try:
        start = family_key(family, start_theta)
        end = family_key(family, end_theta)
    except NotFound as exc:
        raise MissingHoroRegion(str(exc)) from exc
    if start == end:
        return CombinatorialPath((start,))
    prev = {start: None}
    frontier = [start]
    while end not in prev:
        nxt = []
        for k in frontier:
            for m in adjacency[k]:
                if m not in prev:
                    prev[m] = k
                    nxt.append(m)
        frontier = nxt
    out = [end]
    while prev[out[-1]] is not None:
        out.append(prev[out[-1]])
    return CombinatorialPath(tuple(reversed(out)))


# -- sampling -----------------------------------------------------------------


def draw_until(draw, count: int, max_attempts: int, none_reason: str):
    """Call ``draw()`` until it has given ``count`` values or been called
    ``max_attempts`` times.  A call that raises a FlatBundleError is counted
    under the error's class name, one that returns None under
    ``none_reason``; any other exception propagates.  Returns the values,
    the number of calls and the rejections as a dict sorted by reason."""
    values, attempts, rejected = [], 0, {}
    while len(values) < count and attempts < max_attempts:
        attempts += 1
        try:
            value = draw()
        except FlatBundleError as exc:
            reason = type(exc).__name__
        else:
            if value is not None:
                values.append(value)
                continue
            reason = none_reason
        rejected[reason] = rejected.get(reason, 0) + 1
    return values, attempts, dict(sorted(rejected.items()))
