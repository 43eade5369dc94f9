"""Hyperbolic plane geometry in the unit disk and upper half plane.

Interior points of the disk are complex numbers with |z| < 1; ideal boundary
points are unit complex numbers.  The upper half plane is used internally
whenever a computation is easier there; the Cayley transform ``w -> (w - i) /
(w + i)`` identifies the two, sending ``i`` to the disk center.  There a
boundary point has one form, the projective vector ``(p, q)`` of the real
point ``p / q`` (``_uhp_boundary_vector``): infinity is ``(1, 0)`` like any
other point, and matrices act on it linearly, so no computation branches on
infinity or rotates points away from it.

A flat structure on a fixed surface corresponds to a point of the disk: the
coset of rotations in the unit determinant linear group.  ``saddle_length_at``
evaluates the length of a holonomy vector in the structure at a disk point,
and the sublevel sets of that length are horoballs based at the boundary
point of the vector's direction: direction ``theta`` in [0, pi) sits at the
boundary point ``exp(-2i theta)``.
"""

from __future__ import annotations

import bisect
import cmath
import math
from typing import NamedTuple

from .errors import DegenerateTriple, NonInvertible, NotInDisk, NotOnBoundary

TOL_DET = 1e-9
TOL_BOUNDARY = 1e-9
TOL_CLASSIFY = 1e-9  # trace and identity tolerance of Mobius.classify
TOL_HOROBALL = 1e-12  # Busemann slack of Horoball.contains


def _check_disk(z: complex) -> complex:
    if abs(z) >= 1.0 - 1e-14:
        raise NotInDisk(f"|z| = {abs(z)} is not < 1")
    return z


def _check_boundary(xi: complex) -> complex:
    if abs(abs(xi) - 1.0) > TOL_BOUNDARY:
        raise NotOnBoundary(f"|xi| = {abs(xi)} is not 1")
    return xi / abs(xi)


def disk_from_uhp(w: complex) -> complex:
    return (w - 1j) / (w + 1j)


def uhp_from_disk(z: complex) -> complex:
    return 1j * (1 + z) / (1 - z)


def boundary_from_direction(theta: float) -> complex:
    """Ideal point of the flat direction ``theta`` (taken mod pi)."""
    return cmath.exp(-2j * theta)


class Mobius(NamedTuple):
    """An orientation preserving isometry, stored as a unit determinant matrix."""

    a: float
    b: float
    c: float
    d: float

    @staticmethod
    def from_matrix(m) -> "Mobius":
        (a, b), (c, d) = m
        det = a * d - b * c
        if det <= 0 or abs(det) < 1e-12:
            raise NonInvertible(f"determinant {det} is not positive")
        if abs(det - 1.0) > TOL_DET:
            s = 1.0 / math.sqrt(det)
            a, b, c, d = a * s, b * s, c * s, d * s
        return Mobius(float(a), float(b), float(c), float(d))

    @staticmethod
    def identity() -> "Mobius":
        return Mobius(1.0, 0.0, 0.0, 1.0)

    @property
    def trace(self) -> float:
        return self.a + self.d

    def __matmul__(self, other: "Mobius") -> "Mobius":
        return Mobius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)

    def apply_uhp(self, w: complex) -> complex:
        return (self.a * w + self.b) / (self.c * w + self.d)

    def _disk_matrix(self) -> tuple[complex, complex, complex, complex]:
        # conjugate by the Cayley transform; the result acts on the disk
        a, b, c, d = self.a, self.b, self.c, self.d
        return (
            (a + d) + 1j * (b - c),
            (a - d) - 1j * (b + c),
            (a - d) + 1j * (b + c),
            (a + d) - 1j * (b - c),
        )

    def apply_disk(self, z: complex) -> complex:
        a, b, c, d = self._disk_matrix()
        return (a * z + b) / (c * z + d)

    def apply_boundary(self, xi: complex) -> complex:
        a, b, c, d = self._disk_matrix()
        out = (a * xi + b) / (c * xi + d)
        return out / abs(out)

    def classify(self) -> str:
        t = abs(self.trace)
        tol = TOL_CLASSIFY
        if abs(self.a - self.d) < tol and abs(self.b) < tol and abs(self.c) < tol:
            return "identity"
        if t < 2.0 - tol:
            return "elliptic"
        if t <= 2.0 + tol:
            return "parabolic"
        return "hyperbolic"

    def parabolic_fixed_point(self) -> complex:
        """The boundary point fixed by this element, which must be parabolic:
        ``exp(2ih)`` for its vector ``(cos h, -sin h)``, either of the parallel
        ``(a - d, 2c)`` and ``(2b, d - a)``, whichever is longer."""
        a, b, c, d = self.a, self.b, self.c, self.d
        p, q = max((a - d, 2.0 * c), (2.0 * b, d - a), key=lambda v: math.hypot(*v))
        u = complex(p, -q) / math.hypot(p, q)
        return u * u


def hyp_distance(z1: complex, z2: complex) -> float:
    """Distance between two points of the disk.

    The asinh form keeps every digit for nearby points, where the textbook
    ``acosh(1 + 2 |z1 - z2|^2 / den)`` rounds distances below ~1e-8 to 0.
    """
    den = (1.0 - abs(z1) ** 2) * (1.0 - abs(z2) ** 2)
    if den <= 0:
        raise NotInDisk("points must lie inside the open disk")
    return 2.0 * math.asinh(abs(z1 - z2) / math.sqrt(den))


# -- flat structures as disk points -----------------------------------------


def structure_matrix(z: complex) -> tuple[float, float, float, float]:
    """Upper triangular unit determinant matrix attached to a disk point.

    Row form (a, b, 0, d): the linear map taking the base flat structure to
    the one labelled by ``z``; rotations act on the left and are quotiented
    away by the triangular normal form.
    """
    w = uhp_from_disk(_check_disk(z))
    x, y = w.real, w.imag
    r = math.sqrt(y)
    return (1.0 / r, -x / r, 0.0, r)


def saddle_length_at(z: complex, hol: complex) -> float:
    """Length of the holonomy vector ``hol`` in the structure at ``z``."""
    a, b, _c, d = structure_matrix(z)
    vx = a * hol.real + b * hol.imag
    vy = d * hol.imag
    return math.hypot(vx, vy)


def busemann(xi: complex, z: complex) -> float:
    """Busemann function toward ``xi``, normalized to 0 at the disk center.

    Larger values are deeper toward ``xi``; the function is 1-Lipschitz with
    unit slope along geodesics into the cusp.
    """
    xi = _check_boundary(xi)
    _check_disk(z)
    return math.log((1.0 - abs(z) ** 2) / abs(xi - z) ** 2)


# -- geodesics ---------------------------------------------------------------


def _uhp_boundary_vector(xi: complex) -> tuple[float, float]:
    """Boundary point ``exp(2ih)`` as the vector (p, q) = (cos h, -sin h) of
    the upper half plane point p / q; (a b; c d) sends it to (ap+bq, cp+dq)."""
    h = 0.5 * cmath.phase(_check_boundary(xi))
    return math.cos(h), -math.sin(h)


def _to_zero_inf(xi1: complex, xi2: complex) -> Mobius:
    """Isometry sending the geodesic (xi1, xi2) to the upward axis (0, inf).

    The row (q, -p) vanishes on (p, q): the rows of the two endpoints send
    them to 0 and inf.  The center i goes to the unit circle, so its foot
    on the axis is i.
    """
    p1, q1 = _uhp_boundary_vector(xi1)
    p2, q2 = _uhp_boundary_vector(xi2)
    det = p1 * q2 - q1 * p2
    if abs(det) < 1e-12:
        raise DegenerateTriple("geodesic endpoints coincide")
    s = 1.0 if det > 0 else -1.0
    return Mobius.from_matrix(((q1, -p1), (s * q2, -s * p2)))


class Geodesic(NamedTuple):
    """Oriented complete geodesic from ideal point ``start`` to ``end``."""

    start: complex
    end: complex

    def to_axis(self) -> Mobius:
        return _to_zero_inf(self.start, self.end)

    def points(self, us) -> list[complex]:
        """The points at arclength parameters ``us``, mapped by one axis
        isometry; u = 0 is the closest point to the center."""
        M = self.to_axis().inverse()
        return [disk_from_uhp(M.apply_uhp(1j * math.exp(u))) for u in us]

    def side_of(self, z: complex) -> float:
        """Positive on the left of the oriented geodesic (seen from start to end)."""
        w = self.to_axis().apply_uhp(uhp_from_disk(z))
        return -w.real / abs(w)

    def foot(self, z: complex) -> complex:
        """Foot of the perpendicular from ``z``."""
        M = self.to_axis()
        w = M.apply_uhp(uhp_from_disk(z))
        return disk_from_uhp(M.inverse().apply_uhp(1j * abs(w)))

    def distance_to(self, z: complex) -> float:
        w = self.to_axis().apply_uhp(uhp_from_disk(z))
        return math.asinh(abs(w.real) / w.imag)


def ideal_endpoints(z1: complex, z2: complex) -> tuple[complex, complex]:
    """Ideal endpoints of the geodesic through two interior points.

    Oriented so the geodesic runs from beyond ``z1`` to beyond ``z2``: the
    isometry ``phi`` of ``Segment`` sends ``z2`` to ``r u`` with
    ``|u| = 1``, so they are ``phi^-1(-u)`` and ``phi^-1(u)``.
    """
    _check_disk(z1)
    _check_disk(z2)
    w = (z2 - z1) / (1.0 - z1.conjugate() * z2)
    if abs(w) < 1e-15:
        raise DegenerateTriple("points coincide")
    u = w / abs(w)
    return (-u + z1) / (1.0 - z1.conjugate() * u), (u + z1) / (1.0 + z1.conjugate() * u)


class Segment:
    """The n + 1 points at arclength fractions 0, 1/n, ..., 1 of the
    segment from ``z1`` to ``z2``, each with its scale ``sqrt(1 - |z|^2)``.

    The isometry ``phi(z) = (z - z1) / (1 - conj(z1) z)`` sends ``z1`` to 0
    and ``z2`` to ``r u`` with ``|u| = 1``; turned by ``conj(u)``, the
    segment is [0, r] on the real diameter, and point k is
    ``phi^-1(tanh((k / n) atanh r) u)``.  Points are computed when first
    read and kept.  Ends closer than 1e-15 give n + 1 copies of ``z1``.
    """

    __slots__ = ("z1", "n", "z1c", "u", "turn", "a", "r", "end", "per_unit", "_memo")

    def __init__(self, z1: complex, z2: complex, n: int):
        w = (z2 - z1) / (1.0 - z1.conjugate() * z2)
        self.r = abs(w) if abs(z1 - z2) >= 1e-15 else 0.0
        self.z1, self.n, self.z1c = z1, n, z1.conjugate()
        self.u = w / self.r if self.r else 0j  # phi(z2) / r
        self.turn = self.u.conjugate()
        self.a = math.atanh(self.r)
        self.end = 2.0 * self.r / (1.0 + self.r * self.r)  # tanh of the length
        self.per_unit = n / self.a if self.r else math.inf  # points per atanh
        self._memo: dict = {}

    def point(self, k: int) -> tuple:
        """(point, scale) of point k."""
        q = self._memo.get(k)
        if q is None:
            p = math.tanh((k / self.n) * self.a) * self.u
            z = (p + self.z1) / (1.0 + self.z1c * p)
            q = self._memo[k] = (z, math.sqrt(1.0 - abs(z) ** 2))
        return q

    def _from(self, k: int) -> list:
        # points k and k + 1, as far as they exist
        return [self.point(j) for j in range(k, min(k + 2, self.n + 1))]

    def nearest(self, z: complex) -> list:
        """The points that can be nearest to ``z``: its foot lies at
        distance ``atanh(2 Re w / (1 + |w|^2))`` from z1, w its turned image."""
        w = (z - self.z1) / (1.0 - self.z1c * z) * self.turn
        v = 2.0 * w.real / (1.0 + w.real * w.real + w.imag * w.imag)
        if v <= 0.0:
            return [self.point(0)]
        if v >= self.end:
            return [self.point(self.n)]
        return self._from(int(0.5 * math.atanh(v) * self.per_unit))

    def deepest(self, base: complex) -> list:
        """The points that can be deepest toward the ideal point ``base``:
        for ``e^{i alpha}`` its turned image, the Busemann function along the
        real diameter peaks at ``x = cos(alpha) / (1 + |sin(alpha)|)``."""
        e = (base - self.z1) / (1.0 - self.z1c * base) * self.turn
        x = e.real / (abs(e) + abs(e.imag))
        if x <= 0.0:
            return [self.point(0)]
        if x >= self.r:
            return [self.point(self.n)]
        return self._from(int(math.atanh(x) * self.per_unit))


# -- horoballs ---------------------------------------------------------------


class Horoball(NamedTuple):
    """Sublevel horoball {busemann(base, .) >= level} at an ideal base point."""

    base: complex
    level: float

    def contains(self, z: complex) -> bool:
        return busemann(self.base, z) >= self.level - TOL_HOROBALL

    def distance_to_point(self, z: complex) -> float:
        # busemann without its checks: the slimness kernel calls this per sample
        return max(0.0, self.level - math.log((1.0 - abs(z) ** 2) / abs(self.base - z) ** 2))

    def closest_point_to(self, z: complex) -> complex:
        """Point of the closed horoball nearest to ``z``: the rotation about
        i with rows ``(p, q)`` and ``(-q, p)`` sends the base's vector (p, q)
        to infinity, where the ball is ``Im w >= e^level``, so straight above."""
        if self.contains(z):
            return z
        p, q = _uhp_boundary_vector(self.base)
        M = Mobius(p, q, -q, p)
        w = M.apply_uhp(uhp_from_disk(z))
        return disk_from_uhp(M.inverse().apply_uhp(complex(w.real, math.exp(self.level))))


def geodesic_max_busemann(g: Geodesic, xi: complex) -> float:
    """Maximum of the Busemann function toward ``xi`` along a geodesic.

    With ``xi`` at the upper half plane infinity the Busemann function is
    log(Im w) and the geodesic a semicircle; for the boundary vectors v of
    ``xi`` and v1, v2 of the endpoints its radius is
    ``|v1 x v2| / (2 |v x v1| |v x v2|)``.  +inf when ``xi`` is an endpoint.
    """
    if abs(g.start - xi) < 1e-12 or abs(g.end - xi) < 1e-12:
        return math.inf
    p, q = _uhp_boundary_vector(xi)
    p1, q1 = _uhp_boundary_vector(g.start)
    p2, q2 = _uhp_boundary_vector(g.end)
    denom = 2.0 * abs(p * q1 - q * p1) * abs(p * q2 - q * p2)
    return math.log(abs(p1 * q2 - q1 * p2) / denom)


def segment_clip_by_horoball(z1: complex, z2: complex, balls) -> list[float]:
    """The length of the segment [z1, z2] inside each of ``balls``.

    The segment's isometry M onto the axis (0, inf) is built once, and
    there the segment is ``i t`` with ``log t`` in [u1, u2].  In the upper
    half plane a ball is ``Im w >= |q w - p|^2`` for (p, q) the
    ``_uhp_boundary_vector`` of its base scaled by ``e^(level/2)``; moved
    by M it is ``q^2 t^2 - t + p^2 <= 0``: an interval of t, or a ray when
    q = 0.
    """
    try:
        M = Geodesic(*ideal_endpoints(z1, z2)).to_axis()
    except DegenerateTriple:  # the points are too close to span a geodesic
        return [0.0] * len(balls)
    u1 = math.log(abs(M.apply_uhp(uhp_from_disk(z1))))
    u2 = math.log(abs(M.apply_uhp(uhp_from_disk(z2))))
    if u1 > u2:
        u1, u2 = u2, u1
    # M's determinant D is 1 only to TOL_DET, and M (p, q) comes out sqrt(D)
    # too long; unscaled, that moves the ball's level by log D, and the
    # clipped length by several times that
    root = math.sqrt(M.a * M.d - M.b * M.c)
    inside = []
    for ball in balls:
        p, q = _uhp_boundary_vector(ball.base)
        k = math.exp(0.5 * ball.level) / root
        p, q = k * p, k * q
        p, q = M.a * p + M.b * q, M.c * p + M.d * q
        pp, qq = p * p, q * q
        if 4.0 * pp * qq > 1.0:
            inside.append(0.0)
            continue
        # a base at a geodesic end that rounds to q ~ 1e-162 overflows the
        # top root; the ball is then the ray t >= p^2, as for q = 0
        top = (1.0 + math.sqrt(1.0 - 4.0 * pp * qq)) / (2.0 * qq) if qq > 0.0 else math.inf
        if top == math.inf:
            lo, hi = math.log(pp), math.inf
        else:
            bottom = pp / (qq * top)  # the product of the roots is pp / qq
            lo, hi = (math.log(bottom) if bottom > 0.0 else -math.inf), math.log(top)
        inside.append(max(0.0, min(hi, u2) - max(lo, u1)))
    return inside


# -- convex regions ----------------------------------------------------------


class ConvexRegion:
    """Ideal polygon: the intersection of the left half planes of its sides.

    The sides must run counterclockwise from the vertex of least angle in
    [0, 2 pi), each ending where the next starts, as ``veech.build_hull``
    makes them.  A point outside lies beyond exactly one side
    (``side_beyond``) and ``project`` sends it to its foot there; a boundary
    point off the vertices lies on the arc beyond exactly one side
    (``side_facing``).  An empty side list is the whole disk.
    ``center_foot`` is the region's point nearest the disk center, projected
    once when the region is built.

    ``side_beyond`` measures at most four sides.  Each side's circle is
    orthogonal to the unit circle, so the disk center has power 1 with
    respect to it: a ray from the center that enters the circle's disk
    leaves it only past the unit circle.  So a point beyond a side whose
    arc is at most pi is seen from the center through that arc, and lies
    beyond the side facing ``z / |z|`` or, when that direction rounds
    across a vertex, one of its two neighbours.  Only the side with the
    widest arc can hold the center beyond it; it is found once, and it is
    the one side measured for the center itself.
    """

    __slots__ = ("sides", "_start_angles", "_widest", "center_foot")

    def __init__(self, sides: tuple[Geodesic, ...]):
        self.sides = sides
        self._start_angles = [cmath.phase(g.start) % (2 * math.pi) for g in sides]
        n = len(sides)
        arc = lambda k: (self._start_angles[(k + 1) % n] - self._start_angles[k]) % (2 * math.pi)
        self._widest = max(range(n), key=arc, default=None)
        self.center_foot = self.project(0j)

    def contains(self, z: complex, *, tol: float = 1e-9) -> bool:
        return all(g.side_of(z) >= -tol for g in self.sides)

    def side_beyond(self, z: complex) -> Geodesic | None:
        """The side that ``z`` lies beyond, or None when ``contains(z)``."""
        if not self.sides:
            return None
        k = self._facing(z)
        # the center has no direction: only the widest side can hold it
        near = {(k + d) % len(self.sides) for d in (-1, 0, 1)} if z else set()
        # side_of is -tanh of the signed distance: the most negative value
        # under -1e-9, first met in side order, is the one side z lies beyond
        beyond, least = None, -1e-9
        for i in sorted(near | {self._widest}):
            v = self.sides[i].side_of(z)
            if v < least:
                beyond, least = self.sides[i], v
        return beyond

    def side_facing(self, xi: complex) -> Geodesic | None:
        """The side whose boundary arc, from its start counterclockwise to its
        end, holds the ideal point ``xi`` (None when there are no sides)."""
        return self.sides[self._facing(xi)] if self.sides else None

    def _facing(self, xi: complex) -> int:
        # -1 (the last side) below the first start, across angle 0
        return bisect.bisect_right(self._start_angles, cmath.phase(xi) % (2 * math.pi)) - 1

    def project(self, z: complex) -> complex:
        """Closest point of the region (identity on the region itself)."""
        g = self.side_beyond(_check_disk(z))
        return z if g is None else g.foot(z)


# -- ideal triangles ---------------------------------------------------------


def ideal_incenter(xi1: complex, xi2: complex, xi3: complex) -> complex:
    """Incenter of the ideal triangle on three distinct boundary points.

    Equidistant from the three sides (at distance log sqrt 3); equivariant
    under every disk isometry.  The boundary vectors scaled by cross
    products, ``(v2 x v3) v1 + (v3 x v1) v2 + (v1 x v2) v3``, sum to 0, and
    ``(p, q) -> p - w q`` makes them equilateral exactly when ``w`` is the
    incenter (true for 0, 1, inf; an isometry multiplies the map by a
    constant), so ``w`` solves ``p2 - w q2 = omega (p1 - w q1)`` for a cube
    root of unity ``omega``; the other root gives the conjugate.
    """
    (p1, q1), (p2, q2), (p3, q3) = (_uhp_boundary_vector(x) for x in (xi1, xi2, xi3))
    k1, k2, k3 = p2 * q3 - q2 * p3, p3 * q1 - q3 * p1, p1 * q2 - q1 * p2
    if 2.0 * min(abs(k1), abs(k2), abs(k3)) < 1e-9:  # |xi_i - xi_j| = 2 |v_i x v_j|
        raise DegenerateTriple("boundary points are not distinct")
    omega = complex(-0.5, math.sqrt(3.0) / 2.0)
    w = (omega * k1 * p1 - k2 * p2) / (omega * k1 * q1 - k2 * q2)
    return disk_from_uhp(w if w.imag > 0 else w.conjugate())


def balance_point(vx: complex, vy: complex, vz: complex) -> complex:
    """Disk point where three pairwise independent directions balance.

    For the side vectors of a Euclidean triangle this is the structure in
    which the triangle becomes equilateral.
    """
    dirs = []
    for v in (vx, vy, vz):
        theta = math.atan2(v.imag, v.real) % math.pi
        dirs.append(boundary_from_direction(theta))
    return ideal_incenter(*dirs)
