"""Affine symmetry groups of translation surfaces.

Generator verification, limit-set sampling, convex-hull approximation,
parabolic detection, and the horoball / horopoint family attached to the
saddle-connection directions of a surface.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import (
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
    _uhp_boundary_coord,
    boundary_from_direction,
    busemann,
    disk_from_uhp,
    geodesic_max_busemann,
    hyp_distance,
    saddle_length_at_uhp,
    uhp_from_disk,
)
from .surface import TranslationSurface, enumerate_saddle_connections

ANGLE_DEDUP = 1e-8


# -- generator verification --------------------------------------------------


@dataclass(frozen=True)
class AffineAutomorphism:
    """A matrix verified to act on the surface's saddle-connection set."""

    derivative: Mobius
    checked: int  # number of holonomy images verified under the cutoff


def _apply_matrix(m, v: complex) -> complex:
    (a, b), (c, d) = m
    return complex(a * v.real + b * v.imag, c * v.real + d * v.imag)


def _holonomy_key(v: complex):
    r, i = round(v.real, 8) + 0.0, round(v.imag, 8) + 0.0
    if r < 0 or (r == 0 and i < 0):
        r, i = -r + 0.0, -i + 0.0
    return (r, i)


def verify_affine(
    surface: TranslationSurface, m, *, max_length: float = 2.5
) -> AffineAutomorphism:
    """Check that a unit-determinant matrix preserves the saddle set.

    The saddle-connection holonomies (up to sign) form a complete affine
    invariant of the marked surface; the check maps every enumerated
    holonomy forward and backward and requires each image under the length
    cutoff to be an enumerated holonomy itself.
    """
    (a, b), (c, d) = m
    det = a * d - b * c
    if abs(det - 1.0) > 1e-9:
        raise NonInvertible(f"matrix determinant {det} is not 1")
    minv = ((d, -b), (-c, a))
    saddles = enumerate_saddle_connections(surface, max_length)
    keys = {_holonomy_key(sc.holonomy) for sc in saddles}
    checked = 0
    for mat in (m, minv):
        for sc in saddles:
            w = _apply_matrix(mat, sc.holonomy)
            if abs(w) > max_length * (1.0 - 1e-9):
                continue
            checked += 1
            if _holonomy_key(w) not in keys:
                raise NotAnAutomorphism(
                    f"image holonomy {w} of {sc.holonomy} is not a saddle connection"
                )
    if checked == 0:
        raise NotAnAutomorphism(
            "no holonomy image fell under the cutoff; increase max_length"
        )
    return AffineAutomorphism(Mobius.from_matrix(m), checked)


# -- word enumeration ---------------------------------------------------------


def reduced_words(n_gens: int, depth: int):
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


def word_element(generators: tuple[Mobius, ...], word) -> Mobius:
    out = Mobius.identity()
    for l in word:
        g = generators[abs(l) - 1]
        out = out @ (g if l > 0 else g.inverse())
    return out


# -- limit set, hull, parabolic points ---------------------------------------


def sample_limit_set(
    generators, depth: int, base: complex = 0j
) -> tuple[complex, ...]:
    """Boundary directions of the orbit of ``base`` under reduced words.

    Deduplicated at angular tolerance 1e-8 and returned sorted by angle.
    """
    gens = tuple(generators)
    pts = []
    for word in reduced_words(len(gens), depth):
        z = word_element(gens, word).apply_disk(base)
        if abs(z) < 1e-9:
            continue
        pts.append(z / abs(z))
    pts.sort(key=lambda x: cmath.phase(x) % (2 * math.pi))
    out = []
    for x in pts:
        if out and abs(x - out[-1]) < ANGLE_DEDUP:
            continue
        out.append(x)
    if len(out) > 1 and abs(out[0] - out[-1]) < ANGLE_DEDUP:
        out.pop()
    return tuple(out)


def build_hull(sample) -> ConvexRegion:
    """Ideal polygon on the circularly sorted sample points."""
    pts = sorted(set(sample), key=lambda x: cmath.phase(x) % (2 * math.pi))
    dedup = []
    for x in pts:
        if dedup and abs(x - dedup[-1]) < 1e-10:
            continue
        dedup.append(x)
    if len(dedup) > 1 and abs(dedup[0] - dedup[-1]) < 1e-10:
        dedup.pop()
    if len(dedup) < 3:
        raise ElementaryGroup(f"only {len(dedup)} distinct limit points")
    sides = tuple(
        Geodesic(dedup[k], dedup[(k + 1) % len(dedup)]) for k in range(len(dedup))
    )
    return ConvexRegion(sides)


def find_parabolic_fixed_points(generators, depth: int):
    """Fixed points of the parabolic words of length <= depth.

    Returns a list of (boundary point, witness word, element), one entry per
    fixed point at angular tolerance 1e-8, with the first witness found in
    shortest-first order.
    """
    gens = tuple(generators)
    found = []
    for word in reduced_words(len(gens), depth):
        g = word_element(gens, word)
        (a, b), (c, d) = g.matrix
        if abs(abs(a + d) - 2.0) > 1e-9:
            continue
        if abs(b) + abs(c) + abs(a - d) < 1e-9:
            continue  # the identity is not parabolic
        xi = g.fixed_boundary_points()[0]
        if any(abs(xi - x) < ANGLE_DEDUP for (x, _w, _g) in found):
            continue
        found.append((xi, word, g))
    return found


@dataclass(frozen=True)
class VeechGroupData:
    surface: TranslationSurface
    generators: tuple[Mobius, ...]
    automorphisms: tuple[AffineAutomorphism, ...]
    word_depth: int
    limit_sample: tuple[complex, ...]
    hull: ConvexRegion
    parabolic_fixed_points: tuple = field(hash=False, compare=False)

    @property
    def basepoint(self) -> complex:
        if self.hull.contains(0j):
            return 0j
        return self.hull.project(0j)


def build_group_data(
    surface: TranslationSurface,
    matrices,
    *,
    depth: int = 6,
    verify_length: float = 2.5,
    verify_basis=None,
    verify_words=None,
) -> VeechGroupData:
    """Verified group data from generator matrices.

    Generators whose matrix entries are too large for a direct holonomy
    check can be supplied factored: ``verify_basis`` lists small matrices
    verified directly, and ``verify_words`` writes each generator as a word
    in them (letter i+1 = basis[i], negative = inverse); the automorphism
    property then follows by closure.
    """
    if verify_basis is not None:
        basis_autos = tuple(
            verify_affine(surface, m, max_length=verify_length)
            for m in verify_basis
        )
        basis_mob = tuple(a.derivative for a in basis_autos)
        autos = []
        for word, m in zip(verify_words, matrices):
            g = word_element(basis_mob, word)
            target = Mobius.from_matrix(m)
            if max(
                abs(x - y)
                for x, y in zip(
                    (g.a, g.b, g.c, g.d), (target.a, target.b, target.c, target.d)
                )
            ) > 1e-6 and max(
                abs(x + y)
                for x, y in zip(
                    (g.a, g.b, g.c, g.d), (target.a, target.b, target.c, target.d)
                )
            ) > 1e-6:
                raise NotAnAutomorphism(
                    f"word {word} does not reproduce the generator matrix"
                )
            autos.append(
                AffineAutomorphism(target, sum(a.checked for a in basis_autos))
            )
        autos = tuple(autos)
    else:
        autos = tuple(
            verify_affine(surface, m, max_length=verify_length) for m in matrices
        )
    gens = tuple(a.derivative for a in autos)
    sample = sample_limit_set(gens, depth)
    hull = build_hull(sample)
    paras = tuple(find_parabolic_fixed_points(gens, min(depth, 5)))
    return VeechGroupData(surface, gens, autos, depth, sample, hull, paras)


# -- horoball family ----------------------------------------------------------


@dataclass(frozen=True)
class HoroRegion:
    """Horoball (parabolic direction) or horopoint (direction off the hull)."""

    kind: str  # "ball" | "point"
    theta: float
    boundary_point: complex
    shortest_holonomy: complex
    anchor: complex  # the fiber base X over which this direction is traversed
    ball: Horoball | None = None
    length_level: float | None = None
    witness: tuple | None = None


def _boundary_foot(g: Geodesic, xi: complex) -> complex:
    """Foot of the perpendicular from a boundary point onto a geodesic."""
    M = g.to_axis()
    x = _uhp_boundary_coord(xi)
    (a, b), (c, d) = M.matrix
    if math.isinf(x.real):
        if abs(c) < 1e-15:
            raise NotFound("boundary point is an endpoint of the geodesic")
        w = a / c
    else:
        den = c * x.real + d
        if abs(den) < 1e-15:
            w = math.inf
        else:
            w = (a * x.real + b) / den
    if not math.isfinite(w) or abs(w) < 1e-15:
        raise NotFound("boundary point is an endpoint of the geodesic")
    return disk_from_uhp(M.inverse().apply_uhp(1j * abs(w)))


def _project_boundary_to_hull(hull: ConvexRegion, xi: complex) -> complex:
    """Limit of projecting points tending to ``xi`` onto the region."""
    near = 0.999999 * xi
    best = None
    best_d = math.inf
    for g in hull.sides:
        if g.side_of(near) >= 0:
            continue
        try:
            foot = _boundary_foot(g, xi)
        except NotFound:
            continue
        if not all(h.side_of(foot) >= -1e-7 for h in hull.sides if h is not g):
            continue
        d = hyp_distance(near, foot)
        if d < best_d:
            best, best_d = foot, d
    if best is None:
        raise NotFound("no hull side separates the boundary point")
    return best


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
    mid = g.point(0.0)
    k1 = busemann(b1.base, mid)
    k2 = busemann(b2.base, mid)
    return (b1.level - k1) + (b2.level - k2)


def _ball_conditions_hold(
    xi: complex,
    c: float,
    short_len: float,
    other_saddles,
    hull_sides_max_busemann,
    *,
    n_samples: int = 16,
) -> bool:
    for bmax in hull_sides_max_busemann:
        if c - bmax < 1.0:
            return False
    ball = Horoball(xi, c)
    here = short_len * math.exp(-0.5 * c)
    for w in ball.boundary_uhp(n_samples):
        other = min(saddle_length_at_uhp(w, hol) for hol in other_saddles)
        if here > other / 3.0:
            return False
    return True


def build_horoball_family(
    gdata: VeechGroupData,
    saddles,
    *,
    max_level: float = 30.0,
    orbit_depth: int = 4,
) -> dict:
    """One HoroRegion per saddle-connection direction.

    Keyed by ``round(theta, 8)``; parabolic directions receive maximal
    horoballs satisfying the 1/3 length condition and unit clearance from
    the hull boundary, constructed once per group orbit and transported by
    the matching group element; the others receive projection feet.
    """
    # distinct directions with their shortest holonomies
    dirs: list[tuple[float, complex]] = []
    for sc in sorted(saddles, key=lambda s: (s.length, s.direction)):
        th = sc.direction
        if any(
            min(abs(th - t), math.pi - abs(th - t)) < ANGLE_DEDUP for (t, _h) in dirs
        ):
            continue
        dirs.append((th, sc.holonomy))
    dirs.sort()

    paras = gdata.parabolic_fixed_points
    hull = gdata.hull
    basepoint = gdata.basepoint
    family: dict = {}
    ball_dirs = []
    for theta, hol in dirs:
        xi = boundary_from_direction(theta)
        witness = None
        for (xp, word, _g) in paras:
            if abs(xi - xp) < 1e-6:
                witness = word
                break
        if witness is not None:
            ball_dirs.append((theta, hol, xi, witness))
            continue
        if any(abs(xi - s) < ANGLE_DEDUP for s in gdata.limit_sample):
            raise DirectionInsideHullNotParabolic(
                f"direction {theta} meets the limit sample without a parabolic witness"
            )
        foot = _project_boundary_to_hull(hull, xi)
        family[round(theta, 8)] = HoroRegion(
            "point", theta, xi, hol, anchor=foot
        )

    if not ball_dirs:
        return family

    # group parabolic directions into orbits under short words
    orbit_words = [((), Mobius.identity())] + [
        (w, word_element(gdata.generators, w))
        for w in reduced_words(len(gdata.generators), orbit_depth)
    ]
    reps: list[int] = []
    orbit_of: dict[int, tuple[int, Mobius]] = {}
    for i, (_t, _h, xi, _w) in enumerate(ball_dirs):
        placed = False
        for r in reps:
            for (_word, g) in orbit_words:
                if abs(g.apply_boundary(ball_dirs[r][2]) - xi) < 1e-6:
                    orbit_of[i] = (r, g)
                    placed = True
                    break
            if placed:
                break
        if not placed:
            reps.append(i)
            orbit_of[i] = (i, Mobius.identity())

    # per-representative maximal admissible level, by bisection
    rep_level: dict[int, float] = {}
    for r in reps:
        theta, hol, xi, _w = ball_dirs[r]
        short_len = abs(hol)
        others = [
            sc.holonomy
            for sc in saddles
            if min(abs(sc.direction - theta), math.pi - abs(sc.direction - theta))
            > ANGLE_DEDUP
        ]
        if not others:
            raise NotFound("need saddle connections in a second direction")
        side_bmax = []
        for g in hull.sides:
            if abs(g.start - xi) < 1e-9 or abs(g.end - xi) < 1e-9:
                continue
            side_bmax.append(geodesic_max_busemann(g, xi))
        cond = lambda c: _ball_conditions_hold(
            xi, c, short_len, others, side_bmax
        )
        if not cond(max_level):
            raise NotFound(
                f"no admissible horoball level below {max_level} for {theta}"
            )
        lo, hi = 0.0, max_level
        if cond(lo):
            rep_level[r] = lo
            continue
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if cond(mid):
                hi = mid
            else:
                lo = mid
        rep_level[r] = hi

    # transport levels along the orbits
    balls: dict[int, Horoball] = {}
    for i, (theta, hol, xi, _w) in enumerate(ball_dirs):
        r, g = orbit_of[i]
        p = g.apply_disk(_ball_point_toward(ball_dirs[r][2], rep_level[r]))
        balls[i] = Horoball(xi, busemann(xi, p))

    # enforce pairwise unit separation by deepening uniformly if needed
    idx = list(balls)
    deficit = 0.0
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            sep = horoball_separation(balls[idx[a]], balls[idx[b]])
            deficit = max(deficit, 1.0 - sep)
    if deficit > 0.0:
        bump = 0.5 * deficit + 1e-6
        balls = {i: Horoball(b.base, b.level + bump) for i, b in balls.items()}

    for i, (theta, hol, xi, witness) in enumerate(ball_dirs):
        ball = balls[i]
        if ball.contains(basepoint):
            anchor = _ball_point_toward(xi, ball.level) if abs(basepoint) < 1e-12 else basepoint
        else:
            anchor = ball.closest_point_to(basepoint)
        family[round(theta, 8)] = HoroRegion(
            "ball",
            theta,
            xi,
            hol,
            anchor=anchor,
            ball=ball,
            length_level=abs(hol) * math.exp(-0.5 * ball.level),
            witness=witness,
        )
    return family


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
