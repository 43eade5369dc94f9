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

from .errors import DegenerateTriple, NonInvertible, NotInDisk, NotOnBoundary

TOL_DET = 1e-9
TOL_BOUNDARY = 1e-9


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


def direction_from_boundary(xi: complex) -> float:
    xi = _check_boundary(xi)
    return (-cmath.phase(xi) / 2.0) % math.pi


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
    def matrix(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return ((self.a, self.b), (self.c, self.d))

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

    def classify(self, *, tol: float = 1e-9) -> str:
        t = abs(self.trace)
        if abs(self.a - self.d) < tol and abs(self.b) < tol and abs(self.c) < tol:
            return "identity"
        if t < 2.0 - tol:
            return "elliptic"
        if t <= 2.0 + tol:
            return "parabolic"
        return "hyperbolic"

    def fixed_boundary_points(self) -> tuple[complex, ...]:
        """Boundary fixed points: one if parabolic, two if hyperbolic."""
        kind = self.classify()
        if kind == "parabolic":
            if abs(self.c) < 1e-13:
                return (boundary_from_direction(0.0),)  # fixes infinity
            x = (self.a - self.d) / (2.0 * self.c)
            return (disk_from_uhp(complex(x, 0.0)) / abs(disk_from_uhp(complex(x, 0.0))),)
        if kind == "hyperbolic":
            tr = self.trace
            disc = math.sqrt(tr * tr - 4.0)
            out = []
            for lam in ((tr - disc) / 2.0, (tr + disc) / 2.0):
                # eigenvector (x, 1) with a x + b = lam x, unless c == 0
                if abs(self.c) > 1e-13:
                    x = (lam - self.d) / self.c
                    xi = disk_from_uhp(complex(x, 0.0))
                    out.append(xi / abs(xi))
                else:
                    if abs(self.a - lam) > 1e-13:
                        x = self.b / (lam - self.a)
                        xi = disk_from_uhp(complex(x, 0.0))
                        out.append(xi / abs(xi))
                    else:
                        out.append(complex(1.0, 0.0))  # fixes infinity
            return tuple(out)
        return ()


def hyp_distance(z1: complex, z2: complex) -> float:
    """Distance between two points of the disk."""
    num = 2.0 * abs(z1 - z2) ** 2
    den = (1.0 - abs(z1) ** 2) * (1.0 - abs(z2) ** 2)
    if den <= 0:
        raise NotInDisk("points must lie inside the open disk")
    return math.acosh(1.0 + num / den)


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


def saddle_length_at_uhp(w: complex, hol: complex) -> float:
    """Holonomy length at an upper half plane point (stable near the boundary)."""
    x, y = w.real, w.imag
    r = math.sqrt(y)
    vx = (hol.real - x * hol.imag) / r
    vy = r * hol.imag
    return math.hypot(vx, vy)


def rotation_uhp(psi: float) -> Mobius:
    """The upper half plane form of the disk rotation z -> exp(i psi) z."""
    h = 0.5 * psi
    return Mobius.from_matrix(((math.cos(h), math.sin(h)), (-math.sin(h), math.cos(h))))


def busemann(xi: complex, z: complex) -> float:
    """Busemann function toward ``xi``, normalized to 0 at the disk center.

    Larger values are deeper toward ``xi``; the function is 1-Lipschitz with
    unit slope along geodesics into the cusp.
    """
    xi = _check_boundary(xi)
    _check_disk(z)
    return math.log((1.0 - abs(z) ** 2) / abs(xi - z) ** 2)


def saddle_length_via_busemann(z: complex, hol: complex) -> float:
    """Same as :func:`saddle_length_at` through the Busemann identity."""
    xi = boundary_from_direction(math.atan2(hol.imag, hol.real) % math.pi)
    return abs(hol) * math.exp(-0.5 * busemann(xi, z))


# -- geodesics ---------------------------------------------------------------


def _uhp_boundary_coord(xi: complex) -> complex:
    """Boundary point as an upper half plane real number, or inf."""
    xi = _check_boundary(xi)
    if abs(xi - 1.0) < 1e-12:
        return complex(math.inf, 0.0)
    w = 1j * (1 + xi) / (1 - xi)
    return complex(w.real, 0.0)


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


def segment_point(z1: complex, z2: complex, s: float) -> complex:
    """Point at arclength ``s`` from ``z1`` along the segment to ``z2``."""
    if abs(z1 - z2) < 1e-15:
        return z1
    g = Geodesic(*ideal_endpoints(z1, z2))
    M = g.to_axis()
    u1 = math.log(abs(M.apply_uhp(uhp_from_disk(z1))))
    u2 = math.log(abs(M.apply_uhp(uhp_from_disk(z2))))
    u = u1 + (u2 - u1) * (s / hyp_distance(z1, z2))
    return disk_from_uhp(M.inverse().apply_uhp(1j * math.exp(u)))


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

    def boundary_sample(self, count: int) -> tuple[complex, ...]:
        """Evenly spread points of the bounding horocycle."""
        psi = cmath.phase(self.base)
        out = []
        y0 = math.exp(self.level)
        for k in range(count):
            alpha = -math.pi / 2 + math.pi * (k + 0.5) / count
            w = complex(y0 * math.tan(alpha), y0)
            z = disk_from_uhp(w)  # horoball at uhp infinity, i.e. disk point 1
            out.append(z * cmath.exp(1j * psi))  # rotate 1 -> base
        return tuple(out)

    def boundary_uhp(self, count: int) -> tuple[complex, ...]:
        """Boundary horocycle as upper half plane points (stable at any depth)."""
        psi = cmath.phase(self.base)
        rot = rotation_uhp(psi)
        y0 = math.exp(self.level)
        out = []
        for k in range(count):
            alpha = -math.pi / 2 + math.pi * (k + 0.5) / count
            w = complex(y0 * math.tan(alpha), y0)
            out.append(rot.apply_uhp(w))
        return tuple(out)

    def closest_point_to(self, z: complex) -> complex:
        """Point of the closed horoball nearest to ``z``."""
        if self.contains(z):
            return z
        # march along the geodesic from z toward the base point
        g = Geodesic(_reflect_through(z, self.base), self.base)
        M = g.to_axis()
        wz = M.apply_uhp(uhp_from_disk(z))
        uz = math.log(abs(wz))
        f = lambda u: busemann(self.base, disk_from_uhp(M.inverse().apply_uhp(1j * math.exp(u))))
        lo_u, hi_u = uz, uz + (self.level - busemann(self.base, z)) + 2.0
        for _ in range(80):
            mid = 0.5 * (lo_u + hi_u)
            if f(mid) < self.level:
                lo_u = mid
            else:
                hi_u = mid
        return disk_from_uhp(M.inverse().apply_uhp(1j * math.exp(0.5 * (lo_u + hi_u))))


def _reflect_through(z: complex, xi: complex) -> complex:
    """Second ideal endpoint of the geodesic from ``z`` into ``xi``."""
    # rotate xi to the disk point 1 (uhp infinity); the geodesic through z
    # toward uhp infinity is vertical, hitting the boundary at Re(w)
    rot = cmath.exp(-1j * cmath.phase(xi))
    w = uhp_from_disk(z * rot)
    other = disk_from_uhp(complex(w.real, 0.0))
    return other / rot / abs(other / rot)


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
    """(length outside, length inside) of the segment [z1, z2] w.r.t. a horoball."""
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
    # concave along the geodesic: find the sub-interval where f >= 0
    n = 64
    us = [u1 + (u2 - u1) * k / n for k in range(n + 1)]
    vals = [f(u) for u in us]
    if max(vals) < 0.0:
        return (total, 0.0)
    kmax = max(range(n + 1), key=lambda k: vals[k])

    def _root(ulo, uhi, increasing):
        for _ in range(80):
            um = 0.5 * (ulo + uhi)
            if (f(um) > 0.0) == increasing:
                uhi = um
            else:
                ulo = um
        return 0.5 * (ulo + uhi)

    lo = u1 if vals[0] >= 0.0 else _root(us[kmax], u1, increasing=False)
    hi = u2 if vals[n] >= 0.0 else _root(us[kmax], u2, increasing=False)
    lo, hi = min(lo, hi), max(lo, hi)
    inside = hi - lo
    return (total - inside, inside)


# -- convex regions ----------------------------------------------------------


@dataclass(frozen=True)
class ConvexRegion:
    """Intersection of left half planes of oriented complete geodesics.

    An empty side list is the whole disk (the hull of a dense limit set is
    approximated by many short sides instead of being special cased).
    """

    sides: tuple[Geodesic, ...]

    def contains(self, z: complex, *, tol: float = 1e-9) -> bool:
        return all(g.side_of(z) >= -tol for g in self.sides)

    def project(self, z: complex) -> complex:
        """Closest point of the region (identity on the region itself)."""
        _check_disk(z)
        if self.contains(z):
            return z
        best = None
        best_d = math.inf
        for g in self.sides:
            foot = g.foot(z)
            d = hyp_distance(z, foot)
            ok = all(
                h.side_of(foot) >= -1e-7 for h in self.sides if h is not g
            )
            if ok and d < best_d:
                best, best_d = foot, d
        if best is None:
            # numerically awkward corner: fall back to the nearest foot
            for g in self.sides:
                foot = g.foot(z)
                d = hyp_distance(z, foot)
                if d < best_d:
                    best, best_d = foot, d
        return best


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
