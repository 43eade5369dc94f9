"""Hyperbolic plane geometry in the unit disk and upper half plane.

Interior points of the disk are complex numbers with |z| < 1; ideal boundary
points are unit complex numbers.  The upper half plane is used internally
whenever a computation is easier there; the Cayley transform ``w -> (w - i) /
(w + i)`` identifies the two, sending ``i`` to the disk center.

A flat structure on a fixed surface corresponds to a point of the disk: the
coset of rotations in the unit determinant linear group.  ``saddle_length_at``
evaluates the length of a holonomy vector in the structure at a disk point,
and the sublevel sets of that length are horoballs based at the boundary
point of the vector's direction: direction ``theta`` in [0, pi) sits at the
boundary point ``exp(-2i theta)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateTriple, NonInvertible, NotInDisk, NotOnBoundary

TOL_DET = 1e-9
TOL_BOUNDARY = 1e-9
TOL_CLASSIFY = 1e-9  # trace and identity tolerance of Mobius.classify


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


@dataclass(frozen=True)
class Mobius:
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
        """The boundary point fixed by this element, which must be parabolic."""
        if abs(self.c) < 1e-13:
            return boundary_from_direction(0.0)  # fixes infinity
        xi = disk_from_uhp(complex((self.a - self.d) / (2.0 * self.c), 0.0))
        return xi / abs(xi)


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


def _uhp_boundary_coord(xi: complex) -> complex:
    """Boundary point as an upper half plane real number, or inf."""
    xi = _check_boundary(xi)
    if abs(xi - 1.0) < 1e-12:
        return complex(math.inf, 0.0)
    w = 1j * (1 + xi) / (1 - xi)
    return complex(w.real, 0.0)


def _uhp_boundary_vector(xi: complex) -> tuple[float, float]:
    """Boundary point ``exp(2ih)`` as the vector (p, q) = (cos h, -sin h) of
    the upper half plane point p / q; (a b; c d) sends it to (ap+bq, cp+dq)."""
    h = 0.5 * cmath.phase(xi)
    return math.cos(h), -math.sin(h)


@lru_cache(maxsize=65536)
def _to_zero_inf(xi1: complex, xi2: complex) -> Mobius:
    """Isometry sending the geodesic (xi1, xi2) to the upward axis (0, inf)."""
    x1 = _uhp_boundary_coord(xi1)
    x2 = _uhp_boundary_coord(xi2)
    if x1 == x2:
        raise DegenerateTriple("geodesic endpoints coincide")
    if math.isinf(x2.real):
        return Mobius.from_matrix(((1.0, -x1.real), (0.0, 1.0)))
    if math.isinf(x1.real):
        # send x1 = inf -> 0, x2 -> inf
        return Mobius.from_matrix(((0.0, -1.0), (1.0, -x2.real)))
    a, b = x1.real, x2.real
    det = a - b
    if det > 0:
        return Mobius.from_matrix(((1.0, -a), (1.0, -b)))
    return Mobius.from_matrix(((-1.0, a), (1.0, -b)))


@dataclass(frozen=True)
class Geodesic:
    """Oriented complete geodesic from ideal point ``start`` to ``end``."""

    start: complex
    end: complex

    def to_axis(self) -> Mobius:
        return _to_zero_inf(self.start, self.end)

    def point(self, u: float) -> complex:
        """Arclength parametrization; u = 0 is the closest point to the center."""
        M = self.to_axis().inverse()
        return disk_from_uhp(M.apply_uhp(1j * math.exp(u)))

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

    Oriented so the geodesic runs from beyond ``z1`` to beyond ``z2``.
    """
    w1 = uhp_from_disk(_check_disk(z1))
    w2 = uhp_from_disk(_check_disk(z2))
    if abs(w1 - w2) < 1e-15:
        raise DegenerateTriple("points coincide")
    if abs(w1.real - w2.real) < 1e-12 * (1 + abs(w1) + abs(w2)):
        lo = complex(w1.real, 0.0)
        if w1.imag < w2.imag:
            return (disk_from_uhp(lo), complex(1.0, 0.0))
        return (complex(1.0, 0.0), disk_from_uhp(lo))
    c = (abs(w1) ** 2 - abs(w2) ** 2) / (2.0 * (w1.real - w2.real))
    r = abs(w1 - c)
    a, b = complex(c - r, 0.0), complex(c + r, 0.0)
    if w1.real > w2.real:
        a, b = b, a
    return (disk_from_uhp(a), disk_from_uhp(b))


def segment_points(z1: complex, z2: complex, n: int) -> np.ndarray:
    """The n + 1 points at arclength fractions 0, 1/n, ..., 1 from ``z1`` to ``z2``.

    The isometry ``phi(z) = (z - z1) / (1 - conj(z1) z)`` sends ``z1`` to 0
    and ``z2`` to ``r exp(i theta)``; the point at fraction ``t`` is
    ``phi^-1(tanh(t atanh r) exp(i theta))``.
    """
    _check_disk(z1)
    _check_disk(z2)
    if abs(z1 - z2) < 1e-15:
        return np.full(n + 1, z1, dtype=complex)
    w = (z2 - z1) / (1.0 - z1.conjugate() * z2)
    r = abs(w)
    p = np.tanh((np.arange(n + 1) / n) * math.atanh(r)) * (w / r)
    return (p + z1) / (1.0 + z1.conjugate() * p)


# -- horoballs ---------------------------------------------------------------


@dataclass(frozen=True)
class Horoball:
    """Sublevel horoball {busemann(base, .) >= level} at an ideal base point."""

    base: complex
    level: float

    def contains(self, z: complex, *, tol: float = 1e-12) -> bool:
        return busemann(self.base, z) >= self.level - tol

    def distance_to_point(self, z: complex) -> float:
        return max(0.0, self.level - busemann(self.base, z))

    def closest_point_to(self, z: complex) -> complex:
        """Point of the closed horoball nearest to ``z``: with the base at the
        upper half plane infinity the ball is ``Im w >= e^level``, so straight above."""
        if self.contains(z):
            return z
        rot = cmath.exp(-1j * cmath.phase(self.base))
        w = uhp_from_disk(z * rot)
        return disk_from_uhp(complex(w.real, math.exp(self.level))) / rot


def geodesic_max_busemann(g: Geodesic, xi: complex) -> float:
    """Maximum of the Busemann function toward ``xi`` along a geodesic.

    Rotating ``xi`` to the upper half plane infinity makes the Busemann
    function log(Im w); a geodesic with real endpoints x1, x2 is the
    semicircle of radius |x1 - x2|/2, so the maximum is the log of that
    radius.  It is +inf when ``xi`` is an endpoint of ``g``.
    """
    if abs(g.start - xi) < 1e-12 or abs(g.end - xi) < 1e-12:
        return math.inf
    rot = cmath.exp(-1j * cmath.phase(xi))
    x1 = _uhp_boundary_coord(g.start * rot)
    x2 = _uhp_boundary_coord(g.end * rot)
    if math.isinf(x1.real) or math.isinf(x2.real):
        return math.inf
    return math.log(abs(x1.real - x2.real) / 2.0)


def segment_clip_by_horoball(
    z1: complex, z2: complex, ball: Horoball
) -> tuple[float, float]:
    """(length outside, length inside) of the segment [z1, z2] w.r.t. a horoball.

    In the upper half plane the ball is ``Im w >= |q w - p|^2`` for (p, q)
    the ``_uhp_boundary_vector`` of its base scaled by ``e^(level/2)``.
    Once the segment is ``i t`` with ``log t`` in [u1, u2], the ball is
    ``q^2 t^2 - t + p^2 <= 0``: an interval of t, or a ray when q = 0.
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
    p, q = _uhp_boundary_vector(ball.base)
    k = math.exp(0.5 * ball.level)
    p, q = k * p, k * q
    p, q = M.a * p + M.b * q, M.c * p + M.d * q
    pp, qq = p * p, q * q
    if qq == 0.0:
        lo, hi = math.log(pp), math.inf
    elif 4.0 * pp * qq > 1.0:
        return (total, 0.0)
    else:
        top = (1.0 + math.sqrt(1.0 - 4.0 * pp * qq)) / (2.0 * qq)
        bottom = pp / (qq * top)  # the product of the roots is pp / qq
        lo, hi = (math.log(bottom) if bottom > 0.0 else -math.inf), math.log(top)
    inside = max(0.0, min(hi, u2) - max(lo, u1))
    return (total - inside, inside)


# -- convex regions ----------------------------------------------------------


@dataclass(frozen=True)
class ConvexRegion:
    """Intersection of left half planes of oriented complete geodesics.

    The sides must bound an ideal polygon, as ``veech.build_hull`` makes
    them: its complement is the disjoint union of the half planes beyond the
    sides, so a point outside lies beyond exactly one side (``side_beyond``)
    and ``project`` sends it to its foot there.  An empty side list is the
    whole disk (the hull of a dense limit set is approximated by many short
    sides instead of being special cased).
    """

    sides: tuple[Geodesic, ...]

    def contains(self, z: complex, *, tol: float = 1e-9) -> bool:
        return all(g.side_of(z) >= -tol for g in self.sides)

    def side_beyond(self, z: complex) -> Geodesic | None:
        """The side that ``z`` lies beyond, or None when ``contains(z)``."""
        # side_of is -tanh of the signed distance: the most negative value
        # is the one side that z lies beyond
        g = min(self.sides, key=lambda g: g.side_of(z), default=None)
        return g if g is not None and g.side_of(z) < -1e-9 else None

    def project(self, z: complex) -> complex:
        """Closest point of the region (identity on the region itself)."""
        g = self.side_beyond(_check_disk(z))
        return z if g is None else g.foot(z)


# -- ideal triangles ---------------------------------------------------------


def _mobius_three_points(x1: float, x2: float, x3: float) -> Mobius:
    """Real Moebius map sending (x1, x2, x3) to (0, 1, inf)."""
    a, b = x2 - x3, -x1 * (x2 - x3)
    c, d = x2 - x1, -x3 * (x2 - x1)
    det = a * d - b * c
    if det <= 0:
        raise DegenerateTriple("triple is not positively oriented")
    return Mobius.from_matrix(((a, b), (c, d)))


def ideal_incenter(xi1: complex, xi2: complex, xi3: complex) -> complex:
    """Incenter of the ideal triangle on three distinct boundary points.

    Equidistant from the three sides (at distance log sqrt 3); equivariant
    under every disk isometry.
    """
    pts = [_check_boundary(x) for x in (xi1, xi2, xi3)]
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(pts[i] - pts[j]) < 1e-9:
                raise DegenerateTriple("boundary points are not distinct")
    # rotate the disk so no vertex sits near the point 1 (uhp infinity)
    phases = sorted(cmath.phase(x) % (2 * math.pi) for x in pts)
    gaps = [
        (phases[(k + 1) % 3] - phases[k]) % (2 * math.pi) for k in range(3)
    ]
    kbig = max(range(3), key=lambda k: gaps[k])
    rot_angle = phases[kbig] + gaps[kbig] / 2.0
    rot = cmath.exp(-1j * rot_angle)
    xs = [_uhp_boundary_coord(x * rot).real for x in pts]
    if math.isinf(xs[0]) or math.isinf(xs[1]) or math.isinf(xs[2]):
        raise DegenerateTriple("rotation failed to clear infinity")
    # orient positively
    x1, x2, x3 = xs
    try:
        M = _mobius_three_points(x1, x2, x3)
    except DegenerateTriple:
        M = _mobius_three_points(x1, x3, x2)
    center_std = complex(0.5, math.sqrt(3.0) / 2.0)
    w = M.inverse().apply_uhp(center_std)
    return disk_from_uhp(w) / rot


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
