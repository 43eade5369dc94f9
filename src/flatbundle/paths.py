"""The bundle model over the disk: fiber comparison maps, preferred paths,
collapsed-length accounting, fans, span sets, and combinatorial paths.

A point of the bundle pairs a disk point (the base) with a cone-point lift
(the fiber position).  Preferred paths alternate horizontal geodesics in the
base with saddle connections traversed in the fiber over the point assigned
to their direction by the horoball family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cylinders import build_bass_serre, trace_direction
from .errors import (
    FlatBundleError,
    MissingHoroRegion,
    NoClosureFound,
    NotAFan,
    NotFound,
    NotReducible,
)
from .hyperbolic import (
    Horoball,
    hyp_distance,
    saddle_length_at,
    segment_clip_by_horoball,
    structure_matrix,
)
from .surface import (
    Corner,
    FlatGeodesic,
    SaddleConnection,
    TranslationSurface,
    cross,
    tighten_chain,
)
from .veech import HoroRegion, family_key, region_for

TOL_JUNCTION = 1e-9


# -- fiber comparison maps ----------------------------------------------------


def fiber_matrix(X: complex, Y: complex) -> tuple[float, float, float, float]:
    """The linear comparison map between the fibers over X and Y.

    Returns A_X @ A_Y^-1 where A_Z is the upper-triangular marking matrix
    of the disk point Z; applying it to holonomies carries the flat metric
    of the fiber over Y to the one over X.
    """
    ax, bx, cx, dx = structure_matrix(X)
    ay, by, cy, dy = structure_matrix(Y)
    # inverse of the unit-determinant (ay, by; cy, dy)
    ia, ib, ic, id_ = dy, -by, -cy, ay
    return (
        ax * ia + bx * ic,
        ax * ib + bx * id_,
        cx * ia + dx * ic,
        cx * ib + dx * id_,
    )


def fiber_map(X: complex, Y: complex, hol: complex) -> complex:
    """Transport a holonomy vector from the fiber over Y to the fiber over X.

    The map is exp(rho(X, Y))-bilipschitz and satisfies the composition law
    fiber_map(X, Y, fiber_map(Y, Z, v)) == fiber_map(X, Z, v).
    """
    a, b, c, d = fiber_matrix(X, Y)
    return complex(a * hol.real + b * hol.imag, c * hol.real + d * hol.imag)


# -- preferred paths ----------------------------------------------------------


@dataclass(frozen=True)
class FiberPoint:
    """A cone-point lift in the fiber over a disk point."""

    base: complex
    corner: Corner


@dataclass(frozen=True)
class HorizontalPiece:
    """A base geodesic segment traversed at a fixed cone-point fiber."""

    start: complex
    end: complex
    fiber: Corner

    @property
    def length(self) -> float:
        return hyp_distance(self.start, self.end)


@dataclass(frozen=True)
class SaddlePiece:
    """A saddle connection traversed in the fiber over ``at_base``."""

    connection: SaddleConnection
    at_base: complex
    region: HoroRegion

    @property
    def length(self) -> float:
        return saddle_length_at(self.at_base, self.connection.holonomy)


@dataclass(frozen=True)
class PreferredPath:
    """Alternating horizontal and saddle pieces joining two fiber points."""

    start: FiberPoint
    end: FiberPoint
    pieces: tuple

    @property
    def d_length(self) -> float:
        return sum(p.length for p in self.pieces)

    @property
    def saddle_pieces(self) -> tuple[SaddlePiece, ...]:
        return tuple(p for p in self.pieces if isinstance(p, SaddlePiece))

    @property
    def horizontal_pieces(self) -> tuple[HorizontalPiece, ...]:
        return tuple(p for p in self.pieces if isinstance(p, HorizontalPiece))


def build_preferred_path(
    surface: TranslationSurface,
    x: FiberPoint,
    y: FiberPoint,
    family: dict,
    chain: list[SaddleConnection] | FlatGeodesic,
) -> PreferredPath:
    """Preferred path from x to y.

    ``chain`` is the homotopy hint: a chain of saddle connections from
    x.corner to y.corner (it is tightened to the flat geodesic first).  The
    geodesic's pieces become saddle pieces over the base points the horoball
    family assigns to their directions, joined by horizontal pieces.
    """
    if isinstance(chain, FlatGeodesic):
        geo = chain
    elif chain:
        geo = tighten_chain(surface, list(chain))
    else:
        geo = FlatGeodesic(())
    pieces: list = []
    prev_base = x.base
    prev_corner = x.corner
    for sc in geo.pieces:
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
    return PreferredPath(x, y, tuple(pieces))


def junction_residuals(
    surface: TranslationSurface, path: PreferredPath
) -> tuple[float, ...]:
    """Base-point and fiber mismatches at consecutive piece junctions.

    The base residual is the disk distance between the shared endpoints;
    the fiber residual is 0 when the adjacent cone lifts belong to the same
    cone class and inf otherwise.
    """
    out = []
    pieces = path.pieces
    for a, b in zip(pieces, pieces[1:]):
        if isinstance(a, HorizontalPiece) and isinstance(b, SaddlePiece):
            base = hyp_distance(a.end, b.at_base)
            same = surface.class_of(a.fiber) is surface.class_of(
                b.connection.start
            )
        elif isinstance(a, SaddlePiece) and isinstance(b, HorizontalPiece):
            base = hyp_distance(a.at_base, b.start)
            same = surface.class_of(a.connection.end) is surface.class_of(
                b.fiber
            )
        else:  # two pieces of the same kind never abut
            return out + [math.inf]
        out.append(base if same else math.inf)
    return tuple(out)


def build_direction_graphs(
    surface: TranslationSurface, family: dict, *, max_trace: float = 40.0
) -> dict:
    """Bass-Serre graphs for every ball direction of a horoball family.

    Keyed like the family.  A direction whose separatrices do not close
    within ``max_trace`` maps to the NoClosureFound value that
    ``trace_direction`` returned for it.
    """
    graphs: dict = {}
    for key, reg in family.items():
        if reg.kind != "ball":
            continue
        decomp = trace_direction(surface, reg.theta, max_trace)
        if isinstance(decomp, NoClosureFound):
            graphs[key] = decomp
        else:
            graphs[key] = build_bass_serre(decomp)
    return graphs


def collapsed_length(
    surface: TranslationSurface, path: PreferredPath, family: dict
) -> float:
    """Length of the path after collapsing horoball preimages onto trees.

    Horizontal sub-segments inside a horoball would contribute the tree
    distance between their entry and exit fiber positions; that is zero,
    because the fiber is a fixed cone point along a horizontal piece.
    Parabolic saddle pieces lie in a spine and contribute zero; everything
    else contributes its full length.  The result never exceeds the
    uncollapsed length.
    """
    balls = [reg.ball for reg in family.values() if reg.kind == "ball"]
    total = 0.0
    for piece in path.pieces:
        if isinstance(piece, SaddlePiece):
            if piece.region.kind != "ball":
                total += piece.length
            continue
        full = piece.length
        inside_sum = 0.0
        for ball in balls:
            _out, inside = segment_clip_by_horoball(piece.start, piece.end, ball)
            if inside <= 1e-12:
                continue
            inside_sum += inside
        total += full - min(inside_sum, full)
    return total


# -- fans ---------------------------------------------------------------------


@dataclass(frozen=True)
class Fan:
    """A triangle with two single-connection sides meeting at the apex.

    ``bottom`` is the geodesic side; ``taus`` are the connections from the
    apex to the bottom junctions (taus[0] and taus[-1] are the two single
    sides).  Consecutive taus cut the fan into Euclidean triangles.
    """

    apex: Corner
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
    return Fan(taus[0].start, tuple(bottom), tuple(taus))


def build_fan(
    surface: TranslationSurface,
    first_side: SaddleConnection,
    bottom,
) -> Fan:
    """Fan with apex ``first_side.start`` over the geodesic ``bottom``.

    ``first_side`` joins the apex to the start of the bottom; the remaining
    apex-to-junction connections are computed by tightening and must each be
    a single saddle connection.
    """
    pieces = bottom.pieces if isinstance(bottom, FlatGeodesic) else tuple(bottom)
    if not pieces:
        raise NotAFan("empty bottom side")
    taus = [first_side]
    for sc in pieces:
        try:
            g = tighten_chain(surface, [taus[-1], sc])
        except FlatBundleError as exc:
            raise NotAFan(f"apex-to-junction geodesic failed: {exc}") from exc
        if len(g.pieces) != 1:
            raise NotAFan(
                f"apex-to-junction geodesic has {len(g.pieces)} pieces"
            )
        taus.append(g.pieces[0])
    return _make_fan(surface, taus, list(pieces))


def random_fan(surface: TranslationSurface, saddles, rng) -> Fan | None:
    """A fan over a randomly drawn triangle, or None when the draw is no fan.

    Draws two saddle connections ``a`` and ``b`` from ``saddles``, then one
    reversal coin for each; the fan has apex ``a.start`` over the geodesic
    tightened from ``a`` reversed followed by ``b``.
    """
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


@dataclass(frozen=True)
class StructureReport:
    """Cyclic-order check of the ideal vertices of a fan."""

    ok: bool
    offending: tuple[int, ...]
    positions: tuple[float, ...]


def _dir_angle(w: complex) -> float:
    th = math.atan2(w.imag, w.real) % math.pi
    if math.pi - th < 1e-10:
        th = 0.0
    return th


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
    a0 = (2.0 * _dir_angle(hols[0])) % (2.0 * math.pi)
    pos = [((2.0 * _dir_angle(w)) % (2.0 * math.pi) - a0) % (2.0 * math.pi) for w in hols]
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
    return StructureReport(not offending, tuple(offending), tuple(pos))


# -- fan decomposition of triangles ------------------------------------------


def _strip_degenerate(surface, prev: list, nxt: list) -> None:
    """Strip the shared saddle-connection prefix at a triangle vertex."""
    while prev and nxt:
        rev = prev[-1].reverse(surface)
        sc = nxt[0]
        if (
            rev.start == sc.start
            and abs(rev.holonomy - sc.holonomy) < TOL_JUNCTION
            and rev.crossings == sc.crossings
        ):
            prev.pop()
            nxt.pop(0)
        else:
            break


def reduce_degenerate(
    surface: TranslationSurface,
    side_a: FlatGeodesic,
    side_b: FlatGeodesic,
    side_c: FlatGeodesic,
) -> tuple[FlatGeodesic, FlatGeodesic, FlatGeodesic]:
    """Nondegenerate subtriangle of a cyclically oriented triangle.

    Sides whose neighbours overlap along saddle connections at a shared
    vertex are stripped of the overlap.
    """
    sides = [list(side_a.pieces), list(side_b.pieces), list(side_c.pieces)]
    for i in range(3):
        _strip_degenerate(surface, sides[i - 1], sides[i])
    return tuple(FlatGeodesic(tuple(s)) for s in sides)


def _peel(surface, s: SaddleConnection, P: list, Q: list) -> list[Fan]:
    """Fans of the triangle with single side s: u->v, P: v->w, Q: w->u."""
    if len(P) == 1:
        # whole triangle is a fan with apex v
        fan = build_fan(
            surface, s.reverse(surface), [q.reverse(surface) for q in reversed(Q)]
        )
        if abs(fan.taus[-1].holonomy - P[0].holonomy) > 1e-7 and abs(
            fan.taus[0].holonomy - P[0].holonomy
        ) > 1e-7:
            raise NotAFan("fan does not close up with the single opposite side")
        return [fan]
    if len(Q) == 1:
        fan = build_fan(surface, s, list(P))
        return [fan]
    # peel a fan with apex u over a prefix of P
    taus = [s]
    consumed: list[SaddleConnection] = []
    for sc in P[:-1]:
        try:
            g = tighten_chain(surface, [taus[-1], sc])
        except FlatBundleError:
            break
        if len(g.pieces) != 1:
            break
        taus.append(g.pieces[0])
        consumed.append(sc)
    if consumed:
        fan = _make_fan(surface, list(taus), list(consumed))
        chord = taus[-1]  # u -> last consumed junction
        rest = _peel(surface, chord, P[len(consumed):], Q)
        return [fan] + rest
    # could not advance along P: try peeling from the other endpoint of s
    taus = [s.reverse(surface)]
    consumed = []
    for sc in [q.reverse(surface) for q in reversed(Q)][:-1]:
        try:
            g = tighten_chain(surface, [taus[-1], sc])
        except FlatBundleError:
            break
        if len(g.pieces) != 1:
            break
        taus.append(g.pieces[0])
        consumed.append(sc)
    if not consumed:
        raise NotReducible("no single-connection chord advances the decomposition")
    fan = _make_fan(surface, list(taus), list(consumed))
    chord = taus[-1].reverse(surface)  # last junction -> v
    newQ = [q.reverse(surface) for q in reversed(Q)][len(consumed):]
    rest = _peel(
        surface,
        chord,
        P,
        [q.reverse(surface) for q in reversed(newQ)],
    )
    return [fan] + rest


def decompose_into_fans(
    surface: TranslationSurface,
    side_a: FlatGeodesic,
    side_b: FlatGeodesic,
    side_c: FlatGeodesic,
) -> list[Fan]:
    """Tile a triangle with a single-connection side by fans.

    The sides are cyclically oriented (a: x->y, b: y->z, c: z->x).  The
    triangle is first reduced to its nondegenerate subtriangle; a fully
    degenerate triangle yields no fans.
    """
    sides = reduce_degenerate(surface, side_a, side_b, side_c)
    if any(len(s.pieces) == 0 for s in sides):
        return []
    for i in range(3):
        if len(sides[i].pieces) == 1:
            s = sides[i].pieces[0]
            P = list(sides[(i + 1) % 3].pieces)
            Q = list(sides[(i + 2) % 3].pieces)
            return _peel(surface, s, P, Q)
    raise NotReducible("no side is a single saddle connection")


# -- span sets ----------------------------------------------------------------


def spans_triangle(
    surface: TranslationSurface, a: SaddleConnection, b: SaddleConnection
) -> bool:
    """Do two saddle connections span a triangle?

    True when some pairing of endpoints shares a cone point and the
    geodesic joining the other endpoints is a single (possibly degenerate)
    saddle connection.
    """
    ka, kb = a.key(), b.key()
    if kb in (ka, a.reverse(surface).key()):
        return False
    chains = (
        [a.reverse(surface), b],
        [a.reverse(surface), b.reverse(surface)],
        [a, b],
        [a, b.reverse(surface)],
    )
    for chain in chains:
        if surface.class_of(chain[0].end) is not surface.class_of(
            chain[1].start
        ):
            continue
        try:
            g = tighten_chain(surface, chain)
        except FlatBundleError:
            continue
        if len(g.pieces) <= 1:
            return True
    return False


def span_set(
    surface: TranslationSurface,
    sigma: SaddleConnection,
    pool,
) -> list[SaddleConnection]:
    """Members of the pool spanning a triangle with ``sigma``."""
    return [sc for sc in pool if spans_triangle(surface, sigma, sc)]


# -- combinatorial paths ------------------------------------------------------


@dataclass(frozen=True)
class CombinatorialPath:
    """A hop sequence through the horoball family."""

    keys: tuple[float, ...]

    @property
    def length(self) -> int:
        return max(0, len(self.keys) - 1)


JUMP_RADIUS = 2.0


def _family_adjacency(family: dict) -> dict:
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
    family: dict,
    start_theta: float,
    end_theta: float,
    *,
    budget: int = 10000,
):
    """Shortest hop path between two directions of the horoball family.

    Moves are horizontal jumps between adjacent regions (consecutive in the
    circular direction order, or with anchors within a bounded distance).
    Returns a CombinatorialPath, or a NotFound instance when the budget is
    exhausted before reaching the target.
    """
    try:
        start = family_key(family, start_theta)
        end = family_key(family, end_theta)
    except NotFound as exc:
        raise MissingHoroRegion(str(exc)) from exc
    if start == end:
        return CombinatorialPath((start,))
    adj = _family_adjacency(family)
    prev = {start: None}
    frontier = [start]
    steps = 0
    while frontier and steps < budget:
        nxt = []
        for k in frontier:
            for m in adj[k]:
                if m in prev:
                    continue
                prev[m] = k
                if m == end:
                    out = [m]
                    while prev[out[-1]] is not None:
                        out.append(prev[out[-1]])
                    return CombinatorialPath(tuple(reversed(out)))
                nxt.append(m)
            steps += 1
        frontier = nxt
    return NotFound(f"no path within budget {budget}")
