"""Affine symmetry groups of translation surfaces.

Generator verification, limit-set sampling, convex-hull approximation,
parabolic detection, and the horoball / horopoint family attached to the
saddle-connection directions of a surface.

The group's reduced words are enumerated once, each element built from its
parent word's element, and three readers use them: the limit-set sample,
the parabolic scan and the grouping of parabolic directions into orbits.
"""

from __future__ import annotations

import cmath
import math
from itertools import combinations
from typing import NamedTuple

from .errors import (
    CuspAtHullVertex,
    CutoffTooLarge,
    DirectionInsideHullNotParabolic,
    ElementaryGroup,
    NonInvertible,
    NotAnAutomorphism,
    NotFound,
)
from .hyperbolic import (
    ConvexRegion,
    Geodesic,
    Horoball,
    Mobius,
    _uhp_boundary_vector,
    boundary_from_direction,
    busemann,
    disk_from_uhp,
    geodesic_max_busemann,
)
from .surface import TOL_VERTEX, cross

ANGLE_DEDUP = 1e-8
ORBIT_DEPTH = 4  # word length that groups parabolic directions into orbits
MAX_WORDS = 150_000  # most reduced words build_group_data enumerates
PARABOLIC_DEPTH = 5  # longest word searched for parabolic fixed points
VERIFY_LENGTH = 2.5  # saddle-connection cutoff of the affine check


# -- generator verification --------------------------------------------------


def _apply_matrix(m, v: complex) -> complex:
    (a, b), (c, d) = m
    return complex(a * v.real + b * v.imag, c * v.real + d * v.imag)


def _holonomy_key(v: complex):
    r, i = round(v.real, 8) + 0.0, round(v.imag, 8) + 0.0
    if r < 0 or (r == 0 and i < 0):
        r, i = -r + 0.0, -i + 0.0
    return (r, i)


def verify_affine(saddles, basis) -> tuple[Mobius, ...]:
    """Check that unit-determinant matrices preserve the saddle set.

    The saddle-connection holonomies (up to sign) form a complete affine
    invariant of the marked surface.  ``saddles`` is the surface's
    enumeration to a cutoff of at least VERIFY_LENGTH, as
    ``enumerate_saddle_connections`` sorts it; the check keeps the records
    up to VERIFY_LENGTH (the enumeration's own vertex slack included), maps
    every one forward and backward by each matrix of ``basis`` and requires
    each image under that cutoff to be a kept holonomy itself.  Returns the
    matrices as Mobius maps, in order.
    """
    saddles = [sc for sc in saddles if abs(sc.holonomy) <= VERIFY_LENGTH + TOL_VERTEX]
    keys = {_holonomy_key(sc.holonomy) for sc in saddles}
    for m in basis:
        (a, b), (c, d) = m
        det = a * d - b * c
        if abs(det - 1.0) > 1e-9:
            raise NonInvertible(f"matrix determinant {det} is not 1")
        checked = 0
        for mat in (m, ((d, -b), (-c, a))):
            for sc in saddles:
                w = _apply_matrix(mat, sc.holonomy)
                if abs(w) > VERIFY_LENGTH * (1.0 - 1e-9):
                    continue
                checked += 1
                if _holonomy_key(w) not in keys:
                    raise NotAnAutomorphism(
                        f"image holonomy {w} of {sc.holonomy} "
                        "is not a saddle connection"
                    )
        if checked == 0:
            raise NotAnAutomorphism(
                "no holonomy image fell under the cutoff; "
                "factor it into smaller matrices"
            )
    return tuple(Mobius.from_matrix(m) for m in basis)


# -- word enumeration ---------------------------------------------------------


def group_words(generators, depth: int) -> list[tuple[tuple[int, ...], Mobius]]:
    """All nonempty reduced words up to ``depth`` with their elements.

    A word is a tuple of nonzero ints: letter ``i+1`` is generator ``i``,
    ``-(i+1)`` its inverse; adjacent cancelling letters are excluded.  Words
    come shortest first, and in each length ordered by their prefix, then by
    the last letter.  A word's element is its prefix's element times the last
    letter, the product :func:`word_element` forms letter by letter.
    """
    letters = [(i + 1, g) for i, g in enumerate(generators)]
    letters += [(-l, g.inverse()) for l, g in letters]
    frontier = [((), Mobius.identity())]
    words = []
    for _ in range(depth):
        frontier = [
            (w + (l,), el @ g)
            for w, el in frontier
            for l, g in letters
            if not w or l != -w[-1]
        ]
        words += frontier
    return words


def word_element(generators: tuple[Mobius, ...], word) -> Mobius:
    out = Mobius.identity()
    for l in word:
        g = generators[abs(l) - 1]
        out = out @ (g if l > 0 else g.inverse())
    return out


# -- limit set, hull, parabolic points ---------------------------------------


def sample_limit_set(words) -> list[complex]:
    """Boundary directions of the orbit of the center under the elements of
    ``(word, element)`` pairs, in the order of ``words``; ``build_hull``
    sorts them and drops duplicates."""
    pts = [g.apply_disk(0j) for _word, g in words]
    return [z / abs(z) for z in pts if abs(z) >= 1e-9]


def build_hull(sample) -> ConvexRegion:
    """Ideal polygon on the sample points sorted by angle in [0, 2 pi),
    without any point within ANGLE_DEDUP of the one before it, circularly."""
    pts: list[complex] = []
    for x in sorted(sample, key=lambda z: cmath.phase(z) % (2 * math.pi)):
        if not pts or abs(x - pts[-1]) >= ANGLE_DEDUP:
            pts.append(x)
    if len(pts) > 1 and abs(pts[0] - pts[-1]) < ANGLE_DEDUP:
        pts.pop()
    if len(pts) < 3:
        raise ElementaryGroup(f"only {len(pts)} distinct limit points")
    return ConvexRegion(tuple(Geodesic(a, b) for a, b in zip(pts, pts[1:] + pts[:1])))


def find_parabolic_fixed_points(words):
    """Fixed points of the parabolic elements of ``(word, element)`` pairs.

    Returns a list of (boundary point, witness word), one entry per fixed
    point at angular tolerance 1e-8, with the first witness in the order of
    ``words``.
    """
    found = []
    for word, g in words:
        if g.classify() != "parabolic":
            continue
        xi = g.parabolic_fixed_point()
        if any(abs(xi - x) < ANGLE_DEDUP for (x, _w) in found):
            continue
        found.append((xi, word))
    return found


class VeechGroupData(NamedTuple):
    generators: tuple[Mobius, ...]
    hull: ConvexRegion  # its vertices are the limit-set sample
    parabolic_fixed_points: tuple
    # the (word, element) pairs of length <= ORBIT_DEPTH, shortest first
    orbit_words: tuple

    @property
    def basepoint(self) -> complex:
        """The point of the hull nearest the disk center (the center itself
        when the hull holds it)."""
        return self.hull.center_foot


def check_word_budget(n_generators: int, depth: int) -> None:
    """Raise CutoffTooLarge when ``build_group_data`` at ``depth`` would
    enumerate more than MAX_WORDS reduced words in ``n_generators``
    generators: ``sum_{k <= L} 2n (2n - 1)^(k - 1)`` for n generators and
    length ``L = max(depth, ORBIT_DEPTH)``."""
    length = max(depth, ORBIT_DEPTH)
    m = 2 * n_generators - 1  # letters that may follow a letter
    count = (m + 1) * (length if m == 1 else (m**length - 1) // (m - 1))
    if count > MAX_WORDS:
        raise CutoffTooLarge(f"depth {depth} gives {count} group words, over {MAX_WORDS}")


def build_group_data(saddles, basis, words, *, depth: int = 6) -> VeechGroupData:
    """Verified group data from a matrix basis and words over it.

    The basis is checked by :func:`verify_affine` against ``saddles``, the
    surface's enumeration to at least VERIFY_LENGTH.  The group's
    generators are the elements of ``words`` in the order given (letter i+1
    is basis[i], negative its inverse), automorphisms by closure; their
    order fixes the order of the word enumeration.

    The reduced words are enumerated once, to ``max(depth, ORBIT_DEPTH)``,
    and each reader takes those up to its own length; more than MAX_WORDS
    of them raise CutoffTooLarge (:func:`check_word_budget`) before any
    work is done.
    """
    check_word_budget(len(words), depth)
    verified = verify_affine(saddles, basis)
    gens = tuple(word_element(verified, w) for w in words)
    length = max(depth, ORBIT_DEPTH)
    reduced = group_words(gens, length)
    hull = build_hull(sample_limit_set([(w, g) for w, g in reduced if len(w) <= depth]))
    paras = find_parabolic_fixed_points(
        [(w, g) for w, g in reduced if len(w) <= min(depth, PARABOLIC_DEPTH)]
    )
    orbit_words = tuple((w, g) for w, g in reduced if len(w) <= ORBIT_DEPTH)
    return VeechGroupData(gens, hull, tuple(paras), orbit_words)


# -- horoball family ----------------------------------------------------------


class HoroRegion(NamedTuple):
    """Horoball (parabolic direction) or horopoint (direction off the hull)."""

    kind: str  # "ball" | "point"
    theta: float
    boundary_point: complex
    anchor: complex  # the fiber base X over which this direction is traversed
    ball: Horoball | None = None
    length_level: float | None = None
    witness: tuple | None = None


def _boundary_foot(g: Geodesic, xi: complex) -> complex:
    """Foot of the perpendicular from a boundary point onto a geodesic: with
    ``g`` on the axis (0, inf), ``xi`` is a real p / q and the foot is i |p / q|."""
    M = g.to_axis()
    p, q = _uhp_boundary_vector(xi)
    p, q = M.a * p + M.b * q, M.c * p + M.d * q
    if min(abs(p), abs(q)) < 1e-15 * max(abs(p), abs(q)):
        raise NotFound("boundary point is an endpoint of the geodesic")
    return disk_from_uhp(M.inverse().apply_uhp(1j * abs(p / q)))


def _ball_point_toward(xi: complex, c: float) -> complex:
    """The point at hyperbolic distance c from the center toward ``xi``."""
    return math.tanh(0.5 * c) * xi


def horoball_separation(b1: Horoball, b2: Horoball) -> float:
    """Signed distance between two horoballs (negative when they overlap).

    Along the geodesic joining the base points the two Busemann functions
    have exact unit slope, so the boundary crossings follow from the values
    at any single interior point.
    """
    g = Geodesic(b1.base, b2.base)
    (mid,) = g.points([0.0])
    k1 = busemann(b1.base, mid)
    k2 = busemann(b2.base, mid)
    return (b1.level - k1) + (b2.level - k2)


def distinct_directions(saddles) -> list[tuple[float, complex]]:
    """The saddles' distinct directions, each with its shortest holonomy.

    One sort by direction, then runs of neighbours closer than ANGLE_DEDUP
    merge, the last run into the first when they meet across pi.  A run
    keeps the direction and holonomy of its least ``(length, direction)``
    saddle.  Sorted by direction.

    This is the pairwise scan (keep each saddle, shortest first, unless its
    direction is within ANGLE_DEDUP of one kept before it) as long as every
    run spans less than ANGLE_DEDUP: a longer chain of near neighbours
    merges here into one direction where the scan would keep several.
    """
    runs: list[list] = []
    for sc in sorted(saddles, key=lambda s: s.direction):
        if runs and sc.direction - runs[-1][-1].direction < ANGLE_DEDUP:
            runs[-1].append(sc)
        else:
            runs.append([sc])
    if len(runs) > 1 and runs[0][0].direction + math.pi - runs[-1][-1].direction < ANGLE_DEDUP:
        runs[0] += runs.pop()
    shortest = (min(run, key=lambda s: (s.length, s.direction)) for run in runs)
    return sorted((sc.direction, sc.holonomy) for sc in shortest)


def _images(cache: dict, r: int, xi: complex, orbit_words) -> list[tuple[complex, Mobius]]:
    """The images of ``xi``, representative ``r``'s ideal point, under the
    orbit words, in their order; computed once per representative."""
    if r not in cache:
        cache[r] = [(g.apply_boundary(xi), g) for _word, g in orbit_words]
    return cache[r]


def build_horoball_family(gdata: VeechGroupData, saddles) -> dict:
    """One HoroRegion per saddle-connection direction.

    Keyed by ``round(theta, 8)``; parabolic directions receive maximal
    horoballs satisfying the 1/3 length condition and unit clearance from
    the hull boundary, constructed once per group orbit and transported by
    the matching group element; the others receive projection feet.

    Both conditions are closed forms in the level c.  With the base rotated
    to the upper half plane infinity the horocycle is ``Im w = e^c``, the
    cusp saddle ``h`` has length ``|h| e^(-c/2)`` all along it, and any
    other saddle ``v`` has length at least ``e^(c/2) |h x v| / |h|``, with
    equality at one point.  So the 1/3 condition holds on the whole
    horocycle exactly when ``c >= log(3 |h|^2 / min_v |h x v|)``.  A hull
    side stays one unit clear when c is at least its maximal Busemann value
    plus one.  Each level is the largest of these bounds and 0.

    The hull side facing a direction's ideal point xi (``side_facing``)
    answers all three hull questions: its endpoints are the sample points
    nearest to xi, a point's anchor is the foot of xi on it, and no side
    reaches deeper toward xi (with xi at infinity the sides are semicircles
    of height their radius, and it alone spans all the vertices).
    """
    dirs = distinct_directions(saddles)
    paras = gdata.parabolic_fixed_points
    hull = gdata.hull
    basepoint = gdata.basepoint
    family: dict = {}
    ball_dirs = []
    for theta, hol in dirs:
        xi = boundary_from_direction(theta)
        side = hull.side_facing(xi)
        at_vertex = side is not None and (
            min(abs(xi - side.start), abs(xi - side.end)) < ANGLE_DEDUP
        )
        witness = next((word for xp, word in paras if abs(xi - xp) < 1e-6), None)
        if witness is not None:
            if at_vertex:
                raise CuspAtHullVertex(f"parabolic direction {theta} is a hull vertex")
            ball_dirs.append((theta, hol, xi, witness, side))
        elif side is None or at_vertex:
            raise DirectionInsideHullNotParabolic(
                f"direction {theta} meets the limit sample without a parabolic witness"
            )
        else:
            family[round(theta, 8)] = HoroRegion("point", theta, xi, _boundary_foot(side, xi))

    if not ball_dirs:
        return family

    # group parabolic directions into orbits under short words
    orbit_words = [((), Mobius.identity())] + list(gdata.orbit_words)
    reps: list[int] = []
    orbit_of: dict[int, tuple[int, Mobius]] = {}
    rep_images: dict[int, list[tuple[complex, Mobius]]] = {}
    for i, (_t, _h, xi, _w, _s) in enumerate(ball_dirs):
        images = (
            (r, g)
            for r in reps
            for image, g in _images(rep_images, r, ball_dirs[r][2], orbit_words)
            if abs(image - xi) < 1e-6
        )
        orbit_of[i] = next(images, (i, Mobius.identity()))
        if orbit_of[i][0] == i:  # no earlier representative maps to xi
            reps.append(i)

    # per-representative minimal admissible level, in closed form
    rep_level: dict[int, float] = {}
    for r in reps:
        theta, hol, xi, _w, side = ball_dirs[r]
        cross_min = min(
            (
                abs(cross(hol, sc.holonomy))
                for sc in saddles
                if min(abs(sc.direction - theta), math.pi - abs(sc.direction - theta))
                > ANGLE_DEDUP
            ),
            default=None,
        )
        if cross_min is None:
            raise NotFound("need saddle connections in a second direction")
        hull_level = 0.0 if side is None else geodesic_max_busemann(side, xi) + 1.0
        rep_level[r] = max(0.0, math.log(3.0 * abs(hol) ** 2 / cross_min), hull_level)

    # transport levels along the orbits
    balls: dict[int, Horoball] = {}
    for i, (theta, hol, xi, _w, _s) in enumerate(ball_dirs):
        r, g = orbit_of[i]
        p = g.apply_disk(_ball_point_toward(ball_dirs[r][2], rep_level[r]))
        balls[i] = Horoball(xi, busemann(xi, p))

    # enforce pairwise unit separation by deepening uniformly if needed
    deficit = max(
        [0.0]
        + [1.0 - horoball_separation(b1, b2) for b1, b2 in combinations(balls.values(), 2)]
    )
    if deficit > 0.0:
        bump = 0.5 * deficit + 1e-6
        balls = {i: Horoball(b.base, b.level + bump) for i, b in balls.items()}

    for i, (theta, hol, xi, witness, _s) in enumerate(ball_dirs):
        ball = balls[i]
        if ball.contains(basepoint):
            anchor = _ball_point_toward(xi, ball.level) if abs(basepoint) < 1e-12 else basepoint
        else:
            anchor = ball.closest_point_to(basepoint)
        family[round(theta, 8)] = HoroRegion(
            "ball",
            theta,
            xi,
            anchor=anchor,
            ball=ball,
            length_level=abs(hol) * math.exp(-0.5 * ball.level),
            witness=witness,
        )
    return family


def family_balls(family: dict) -> list[Horoball]:
    """The horoballs of the family's ball regions, in the family's order."""
    return [reg.ball for reg in family.values() if reg.kind == "ball"]


def family_key(family: dict, theta: float) -> float:
    """The key of the horoball-family entry for direction ``theta``.

    An exact hit on ``round(theta mod pi, 8)``, otherwise the nearest key
    within 1e-7 (measured mod pi); raises NotFound when there is none.
    """
    theta = theta % math.pi
    key = round(theta, 8)
    if key in family:
        return key
    gap = lambda t: min(abs(t - theta), math.pi - abs(t - theta))
    nearest = min(family, key=gap, default=None)
    if nearest is None or gap(nearest) >= 1e-7:
        raise NotFound(f"no hororegion for direction {theta}")
    return nearest


def region_for(family: dict, theta: float) -> HoroRegion:
    return family[family_key(family, theta)]
