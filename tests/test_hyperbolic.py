"""Tests for disk-model hyperbolic geometry."""

import cmath
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flatbundle import hyperbolic as H
from flatbundle.catalog import load_catalog_surface, load_group_preset
from flatbundle.errors import (
    DegenerateTriple,
    ElementaryGroup,
    NonInvertible,
    NotInDisk,
    NotOnBoundary,
)
from flatbundle.surface import enumerate_saddle_connections
from flatbundle.veech import VERIFY_LENGTH, build_group_data, build_hull

import oracles

LOG_SQRT3 = math.log(math.sqrt(3.0))

disk_points = st.complex_numbers(max_magnitude=0.92).filter(lambda z: abs(z) < 0.92)
deep_points = st.complex_numbers(max_magnitude=0.99).filter(lambda z: abs(z) < 0.99)
angles = st.floats(0.0, 2 * math.pi - 1e-9)


def _clip(z1, z2, ball):
    """(outside, inside) lengths of [z1, z2] against one ball."""
    [inside] = H.segment_clip_by_horoball(z1, z2, [ball])
    return H.hyp_distance(z1, z2) - inside, inside


def _loxo(t):
    return H.Mobius.from_matrix(((math.exp(t), 0.3), (0.1, (1 + 0.03) / math.exp(t))))


class TestModels:
    @given(disk_points)
    def test_uhp_round_trip(self, z):
        assert abs(H.disk_from_uhp(H.uhp_from_disk(z)) - z) < 1e-10

    def test_center_is_i(self):
        assert H.uhp_from_disk(0j) == pytest.approx(1j, abs=1e-15)

    @given(st.floats(0.0, math.pi - 1e-6))
    def test_direction_round_trip(self, theta):
        xi = H.boundary_from_direction(theta)
        assert abs(abs(xi) - 1.0) < 1e-12
        assert (-cmath.phase(xi) / 2.0) % math.pi == pytest.approx(theta, abs=1e-9)

    def test_boundary_guard(self):
        with pytest.raises(NotOnBoundary):
            H.busemann(0.5 + 0j, 0j)

    def test_boundary_guard_on_vector_form(self):
        g = H.Geodesic(complex(1, 0), complex(-1, 0))
        with pytest.raises(NotOnBoundary):
            H.Geodesic(0.5 + 0j, -1 + 0j).to_axis()
        with pytest.raises(NotOnBoundary):
            H.geodesic_max_busemann(g, 0.5 + 0j)
        with pytest.raises(NotOnBoundary):
            H.segment_clip_by_horoball(0.1j, 0.2 - 0.3j, [H.Horoball(0.5 + 0j, 1.0)])


class TestMobius:
    def test_determinant_guard(self):
        with pytest.raises(NonInvertible):
            H.Mobius.from_matrix(((1.0, 2.0), (0.5, 1.0)))

    @given(disk_points, disk_points, st.floats(-1.0, 1.0))
    @settings(max_examples=60)
    def test_isometry(self, z1, z2, t):
        m = _loxo(t)
        d1 = H.hyp_distance(z1, z2)
        d2 = H.hyp_distance(m.apply_disk(z1), m.apply_disk(z2))
        assert d2 == pytest.approx(d1, abs=1e-8)

    @given(disk_points, st.floats(-1.0, 1.0))
    @settings(max_examples=40)
    def test_models_agree(self, z, t):
        m = _loxo(t)
        via_uhp = H.disk_from_uhp(m.apply_uhp(H.uhp_from_disk(z)))
        assert abs(via_uhp - m.apply_disk(z)) < 1e-9

    def test_compose_and_invert(self):
        m = _loxo(0.4)
        k = H.Mobius.from_matrix(((1.0, 1.5), (0.0, 1.0)))
        z = 0.3 - 0.2j
        assert abs((m @ k).apply_disk(z) - m.apply_disk(k.apply_disk(z))) < 1e-12
        assert abs(m.inverse().apply_disk(m.apply_disk(z)) - z) < 1e-12

    def test_classification(self):
        assert H.Mobius.from_matrix(((1, 5), (0, 1))).classify() == "parabolic"
        assert H.Mobius.from_matrix(((-1, 0), (0, -1))).classify() == "identity"
        assert H.Mobius.from_matrix(((3, 0), (0, 1 / 3))).classify() == "hyperbolic"
        c, s = math.cos(0.4), math.sin(0.4)
        assert H.Mobius.from_matrix(((c, -s), (s, c))).classify() == "elliptic"

    def test_fixed_points_are_fixed(self):
        for m in (
            H.Mobius.from_matrix(((1, 3), (0, 1))),
            H.Mobius.from_matrix(((0, -1), (1, 2))),
        ):
            xi = m.parabolic_fixed_point()
            assert abs(m.apply_boundary(xi) - xi) < 1e-6

    @given(angles, st.floats(-5.0, 5.0).filter(lambda t: abs(t) > 1e-3))
    def test_fixed_point_of_conjugate_shear(self, a, t):
        # the rotation r sends the shear's fixed point infinity (the disk
        # point 1) to r(1); a near 0 puts the fixed point near infinity
        r = H.Mobius(math.cos(a), -math.sin(a), math.sin(a), math.cos(a))
        m = r @ H.Mobius(1.0, t, 0.0, 1.0) @ r.inverse()
        assert abs(m.parabolic_fixed_point() - r.apply_boundary(1 + 0j)) < 1e-9


class TestDistance:
    def test_against_integration(self):
        pairs = [(0.1 + 0.2j, -0.5 + 0.1j), (0j, 0.7j), (0.6 + 0.1j, 0.58 - 0.3j)]
        for z1, z2 in pairs:
            fast = H.hyp_distance(z1, z2)
            slow = oracles.disk_distance_by_integration(z1, z2)
            assert fast == pytest.approx(slow, abs=1e-5)

    def test_accurate_for_near_points(self):
        assert H.hyp_distance(0, 1e-9) == pytest.approx(2e-9, rel=1e-12)

    @given(disk_points, disk_points, disk_points)
    @settings(max_examples=60)
    def test_triangle_inequality(self, a, b, c):
        assert H.hyp_distance(a, c) <= H.hyp_distance(a, b) + H.hyp_distance(b, c) + 1e-9


class TestFlatStructures:
    def test_base_point_lengths(self):
        assert H.saddle_length_at(0j, 3 + 4j) == pytest.approx(5.0, abs=1e-12)

    @given(disk_points, st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0))
    @settings(max_examples=80)
    def test_busemann_identity(self, z, v):
        direct = H.saddle_length_at(z, v)
        xi = H.boundary_from_direction(math.atan2(v.imag, v.real) % math.pi)
        via = abs(v) * math.exp(-0.5 * H.busemann(xi, z))
        assert via == pytest.approx(direct, rel=1e-8)

    def test_structure_matrix_determinant(self):
        a, b, c, d = H.structure_matrix(0.3 - 0.4j)
        assert a * d - b * c == pytest.approx(1.0, abs=1e-12)

    def test_length_shrinks_toward_cusp(self):
        # pushing the structure toward a direction's ideal point shrinks
        # saddles in that direction
        xi = H.boundary_from_direction(0.0)
        lengths = [H.saddle_length_at(r * xi, 1 + 0j) for r in (0.0, 0.5, 0.9)]
        assert lengths[0] > lengths[1] > lengths[2]


class TestGeodesicsAndHoroballs:
    def test_foot_minimizes(self):
        g = H.Geodesic(H.boundary_from_direction(0.2), H.boundary_from_direction(1.9))
        z = 0.4 + 0.3j
        d = g.distance_to(z)
        assert H.hyp_distance(z, g.foot(z)) == pytest.approx(d, abs=1e-9)
        for u in (-2.0, -0.5, 0.0, 0.5, 2.0):
            assert H.hyp_distance(z, g.points([u])[0]) >= d - 1e-12

    def test_side_changes_sign(self):
        g = H.Geodesic(complex(1, 0), complex(-1, 0))
        assert g.side_of(-0.3j) * g.side_of(0.3j) < 0

    def test_busemann_unit_speed(self):
        xi = cmath.exp(1.234j)
        ball = H.Horoball(xi, 0.7)
        z = -0.4 + 0.2j
        cp = ball.closest_point_to(z)
        assert H.hyp_distance(z, cp) == pytest.approx(
            ball.distance_to_point(z), abs=1e-6
        )
        assert H.busemann(xi, cp) == pytest.approx(0.7, abs=1e-6)

    def test_horocycle_samples_on_level(self):
        ball = H.Horoball(cmath.exp(2.5j), -0.3)
        for w in oracles.horocycle_uhp(ball, 13):
            p = H.disk_from_uhp(w)
            assert H.busemann(ball.base, p) == pytest.approx(-0.3, abs=1e-9)

    def test_clip_vertical_segment(self):
        # in the half plane: horoball {y >= e} against the segment y in [1, 20]
        ball = H.Horoball(complex(1, 0), 1.0)
        z1, z2 = H.disk_from_uhp(1j), H.disk_from_uhp(20j)
        out, ins = _clip(z1, z2, ball)
        assert ins == pytest.approx(math.log(20.0) - 1.0, abs=1e-6)
        assert out == pytest.approx(1.0, abs=1e-6)

    def test_clip_miss(self):
        ball = H.Horoball(complex(1, 0), 1.0)
        z1, z2 = H.disk_from_uhp(-0.5 + 0.5j), H.disk_from_uhp(0.5 + 0.5j)
        out, ins = _clip(z1, z2, ball)
        assert ins == 0.0
        assert out == pytest.approx(H.hyp_distance(z1, z2), abs=1e-12)

    def test_clip_bulge_against_integration(self):
        ball = H.Horoball(complex(1, 0), 1.0)
        z1, z2 = H.disk_from_uhp(-3 + 0.5j), H.disk_from_uhp(3 + 0.5j)
        out, ins = _clip(z1, z2, ball)
        total = H.hyp_distance(z1, z2)
        inside = 0.0
        prev = z1
        for zk in oracles.segment_points(z1, z2, 4000)[1:]:
            if ball.contains(prev) and ball.contains(zk):
                inside += H.hyp_distance(prev, zk)
            prev = zk
        assert ins == pytest.approx(inside, abs=5e-3)
        assert out + ins == pytest.approx(total, abs=1e-9)

    def test_max_busemann_on_axis(self):
        # toward uhp infinity, the max height on the unit semicircle is 1
        g = H.Geodesic(H.disk_from_uhp(complex(-1, 0)), H.disk_from_uhp(complex(1, 0)))
        top = H.geodesic_max_busemann(g, complex(1, 0))
        assert top == pytest.approx(0.0, abs=1e-12)

    @given(angles, angles)
    @settings(max_examples=200)
    def test_point_zero_is_foot_of_center(self, a1, a2):
        xi1, xi2 = cmath.exp(1j * a1), cmath.exp(1j * a2)
        assume(abs(xi1 - xi2) > 1e-6)
        g = H.Geodesic(xi1, xi2)
        assert abs(g.points([0.0])[0] - g.foot(0j)) < 1e-9


class TestRegionsAndIncenters:
    def test_projection_identity_inside(self):
        g = H.Geodesic(complex(1, 0), complex(-1, 0))
        reg = H.ConvexRegion((g,))
        z = -0.3j if reg.contains(-0.3j) else 0.3j
        assert reg.project(z) == z

    def test_projection_hits_nearest_side(self):
        g = H.Geodesic(complex(1, 0), complex(-1, 0))
        reg = H.ConvexRegion((g,))
        z = 0.3j if not reg.contains(0.3j) else -0.3j
        p = reg.project(z)
        assert H.hyp_distance(z, p) == pytest.approx(g.distance_to(z), abs=1e-9)

    def test_empty_side_list_is_everything(self):
        reg = H.ConvexRegion(())
        assert reg.contains(0.8 + 0.1j)
        assert reg.project(0.8 + 0.1j) == 0.8 + 0.1j

    def test_incenter_equidistant(self):
        xs = [cmath.exp(0.3j), cmath.exp(2.0j), cmath.exp(4.5j)]
        c = H.ideal_incenter(*xs)
        for i in range(3):
            g = H.Geodesic(xs[i], xs[(i + 1) % 3])
            assert g.distance_to(c) == pytest.approx(LOG_SQRT3, abs=1e-9)

    @given(angles, angles, angles, st.floats(-0.8, 0.8))
    @settings(max_examples=40)
    def test_incenter_equivariance(self, a1, a2, a3, t):
        xs = [cmath.exp(1j * a) for a in (a1, a2, a3)]
        if min(abs(xs[i] - xs[j]) for i in range(3) for j in range(i + 1, 3)) < 1e-3:
            return
        m = _loxo(t)
        c = H.ideal_incenter(*xs)
        moved = H.ideal_incenter(*(m.apply_boundary(x) for x in xs))
        assert abs(moved - m.apply_disk(c)) < 1e-7

    def test_incenter_permutation_invariance(self):
        xs = [cmath.exp(0.3j), cmath.exp(2.0j), cmath.exp(4.5j)]
        c = H.ideal_incenter(*xs)
        assert abs(H.ideal_incenter(xs[1], xs[2], xs[0]) - c) < 1e-9
        assert abs(H.ideal_incenter(xs[2], xs[1], xs[0]) - c) < 1e-9

    def test_degenerate_triple(self):
        with pytest.raises(DegenerateTriple):
            H.ideal_incenter(1 + 0j, 1 + 0j, -1 + 0j)

    def test_balance_point_of_symmetric_triangle(self):
        # an equilateral flat triangle balances at the disk center
        v1 = 1 + 0j
        v2 = cmath.exp(2j * math.pi / 3)
        v3 = -v1 - v2
        c = H.balance_point(v1, v2, v3)
        lengths = [H.saddle_length_at(c, v) for v in (v1, v2, v3)]
        assert max(lengths) - min(lengths) < 1e-9


def _beyond(g, u, alpha):
    """A point right of ``g`` (outside a region it bounds), ``alpha`` off its axis."""
    w = math.exp(u) * complex(math.sin(alpha), math.cos(alpha))
    return H.disk_from_uhp(g.to_axis().inverse().apply_uhp(w))


@pytest.fixture(scope="module")
def cusped_hull():
    p = load_group_preset("octagon_cusped")
    s = load_catalog_surface(p["surface"])
    return build_group_data(
        enumerate_saddle_connections(s, VERIFY_LENGTH), p["basis"], p["words"], depth=6
    ).hull


balls = st.builds(
    H.Horoball, angles.map(lambda t: cmath.exp(1j * t)), st.floats(-3.0, 6.0)
)


class TestClosedFormsAgainstOracles:
    @given(
        st.lists(angles, min_size=3, max_size=12),
        st.integers(0, 11),
        st.floats(-3.0, 3.0),
        st.floats(0.01, 1.5),
    )
    @settings(max_examples=150)
    def test_project_random_polygons(self, vertex_angles, k, u, alpha):
        try:
            hull = build_hull([cmath.exp(1j * a) for a in vertex_angles])
        except ElementaryGroup:
            assume(False)
        g = hull.sides[k % len(hull.sides)]
        z = _beyond(g, u, alpha)
        assume(abs(z) < 0.999 and not hull.contains(z))
        assert hull.side_beyond(z) is g
        assert abs(hull.project(z) - oracles.project_to_region(hull, z)) < 1e-9

    @given(st.lists(angles, min_size=3, max_size=12), disk_points)
    @settings(max_examples=150)
    def test_side_beyond_only_outside(self, vertex_angles, z):
        try:
            hull = build_hull([cmath.exp(1j * a) for a in vertex_angles])
        except ElementaryGroup:
            assume(False)
        assert (hull.side_beyond(z) is None) == hull.contains(z)

    @given(st.lists(angles, min_size=3, max_size=12), angles)
    @settings(max_examples=300)
    def test_side_facing_random_polygons(self, vertex_angles, a):
        # points just inside the circle near xi lie beyond the side facing
        # xi, and no other side reaches as deep toward xi
        try:
            hull = build_hull([cmath.exp(1j * t) for t in vertex_angles])
        except ElementaryGroup:
            assume(False)
        xi = cmath.exp(1j * a)
        assume(all(abs(xi - g.start) > 1e-6 for g in hull.sides))
        side = hull.side_facing(xi)
        assert hull.side_beyond((1.0 - 1e-9) * xi) is side
        clearance = H.geodesic_max_busemann(side, xi) + 1.0
        assert clearance == oracles.hull_clearance_by_scan(hull, xi)

    @given(
        st.lists(angles, min_size=3, max_size=12),
        st.one_of(angles, st.tuples(st.integers(0, 11), st.floats(-1e-6, 1e-6))),
        st.one_of(
            st.floats(0.0, 1.0 - 1e-9),
            st.floats(-9.0, -1.0).map(lambda e: 1.0 - 10.0**e),
        ),
    )
    @example([0.0, 1.0, 1e-8], 3.5, 1.0 - 1e-9)
    @settings(max_examples=500)
    def test_side_beyond_matches_scan(self, vertex_angles, where, r):
        # the closed-form prefilter keeps the side that the scan over every
        # side picks, out to |z| = 1 - 1e-9 and next to the vertices
        try:
            hull = build_hull([cmath.exp(1j * t) for t in vertex_angles])
        except ElementaryGroup:
            assume(False)
        if isinstance(where, tuple):
            k, off = where
            where = vertex_angles[k % len(vertex_angles)] + off
        z = r * cmath.exp(1j * where)
        assume(abs(z) < 1.0 - 1e-14)
        assert hull.side_beyond(z) is oracles.side_beyond_by_scan(hull, z)

    @pytest.mark.parametrize("depth", [4, 6, 8])
    @pytest.mark.parametrize(
        "name",
        [
            "lshape_lattice",
            "octagon_lattice",
            "octagon_cusped",
            "octagon_hyperbolic",
            "double_pentagon_lattice",
        ],
    )
    def test_center_foot_matches_scan(self, name, depth):
        p = load_group_preset(name)
        s = load_catalog_surface(p["surface"])
        hull = build_group_data(
            enumerate_saddle_connections(s, VERIFY_LENGTH), p["basis"], p["words"], depth=depth
        ).hull
        assert hull.center_foot == oracles.center_foot_by_scan(hull)

    def test_side_facing_without_sides(self):
        assert H.ConvexRegion(()).side_facing(1j) is None

    @given(st.data())
    @settings(max_examples=3, deadline=None)
    def test_project_octagon_cusped_hull(self, cusped_hull, data):
        # O(sides^2) oracle on 1371 sides: a few seconds per example
        g = data.draw(st.sampled_from(cusped_hull.sides))
        z = _beyond(g, data.draw(st.floats(-2.0, 2.0)), data.draw(st.floats(0.05, 1.5)))
        assume(abs(z) < 1.0 - 1e-9 and not cusped_hull.contains(z))
        ref = oracles.project_to_region(cusped_hull, z)
        assert abs(cusped_hull.project(z) - ref) < 1e-9

    @given(balls, disk_points)
    @settings(max_examples=150)
    def test_closest_point(self, ball, z):
        ref = oracles.horoball_closest_point(ball, z)
        assert abs(ball.closest_point_to(z) - ref) < 1e-9

    @given(balls, disk_points, disk_points)
    @example(H.Horoball(1 + 0j, 0.0), 0.75j, complex(2.220446049250313e-16, 0.75))
    @example(H.Horoball(1 + 0j, 1.0), complex(-0.5, 8.097585166383789e-162), 0j)
    @example(H.Horoball(1 + 0j, 0.0), complex(-6.103515625e-05, 6.103515625e-05), 0.3125 - 0.5j)
    @settings(max_examples=300)
    def test_clip(self, ball, z1, z2):
        out, ins = _clip(z1, z2, ball)
        ref_out, ref_ins = oracles.clip_by_horoball(z1, z2, ball)
        total = H.hyp_distance(z1, z2)
        assert ins >= 0.0 and out + ins == pytest.approx(total, abs=1e-9)
        if ins == ref_ins == 0.0:
            return
        # near a tangency the inside length goes as the square root of the
        # depth, so input rounding of 1e-16 moves it by up to ~1e-8
        g = H.Geodesic(*H.ideal_endpoints(z1, z2))
        grazing = H.geodesic_max_busemann(g, ball.base) - ball.level < 1e-9
        tol = 1e-7 if grazing else 1e-9
        if ref_ins > 0.0:
            assert abs(ins - ref_ins) < tol and abs(out - ref_out) < tol
        else:
            # the oracle's 64 samples all missed: at most one sample gap inside
            assert ins < total / 64 + tol

    @given(deep_points, deep_points, st.integers(1, 40))
    @settings(max_examples=300)
    def test_segment_points(self, z1, z2, n):
        total = H.hyp_distance(z1, z2)
        refs = [oracles.segment_point(z1, z2, total * i / n) for i in range(n + 1)]
        # the oracle goes through the ideal endpoints, which lose digits when
        # the geodesic's half-plane circle is huge (z1 = 0.5, z2 = 1e-8j
        # misses its own start by 2e-9); it is no reference there
        assume(H.hyp_distance(refs[0], z1) < 1e-11 and H.hyp_distance(refs[-1], z2) < 1e-11)
        pts = oracles.segment_points(z1, z2, n)
        assert len(pts) == n + 1 and pts[0] == z1
        for p, ref in zip(pts, refs):
            assert H.hyp_distance(p, ref) < 1e-9

    @given(deep_points, deep_points, st.integers(1, 40))
    @settings(max_examples=300)
    def test_segment_points_certificate(self, z1, z2, n):
        total = H.hyp_distance(z1, z2)
        for i, p in enumerate(oracles.segment_points(z1, z2, n)):
            assert abs(H.hyp_distance(z1, p) - total * i / n) < 1e-9

    @given(deep_points, deep_points, st.integers(1, 40))
    @settings(max_examples=300)
    @example(0.3 - 0.855j, 0.3 - 0.855j, 4)
    @example(0.3 - 0.855j, 0.3 - 0.855j + 1e-16, 2)
    @example(0.3 - 0.855j, 0.3 - 0.855j + 3e-9j, 3)
    def test_segment_is_the_reference(self, z1, z2, n):
        # the one sampler in the package gives the reference's points, bit
        # for bit, ends too close to turn included
        seg = H.Segment(z1, z2, n)
        assert [seg.point(k)[0] for k in range(n + 1)] == oracles.segment_points(z1, z2, n)

    def test_segment_points_edge_cases(self):
        z = 0.3 - 0.855j
        assert list(oracles.segment_points(z, z, 4)) == [z] * 5
        assert list(oracles.segment_points(z, z + 1e-16, 2)) == [z] * 3
        pts = oracles.segment_points(z, -0.2j, 1)
        assert pts[0] == z and H.hyp_distance(pts[1], -0.2j) < 1e-12
        near = z + 3e-9j
        for i, p in enumerate(oracles.segment_points(z, near, 3)):
            assert abs(H.hyp_distance(z, p) - H.hyp_distance(z, near) * i / 3) < 1e-15
        with pytest.raises(NotInDisk):
            oracles.segment_points(1.0 + 0j, 0j, 3)
        with pytest.raises(NotInDisk):
            oracles.segment_points(0j, 1j, 3)
        with pytest.raises(NotInDisk):
            oracles.segment_points(1j, 1j, 3)

    def test_clip_grazing_arc(self):
        # the arc |w| = 1.0005 e of the semicircle rises just above the
        # horocycle Im w = e; every one of the oracle's samples misses it
        ball = H.Horoball(complex(1, 0), 1.0)
        radius = 1.0005 * math.e
        z1 = H.disk_from_uhp(radius * cmath.exp(0.02j))
        z2 = H.disk_from_uhp(radius * cmath.exp(1j * (math.pi - 0.3)))
        theta_a = math.asin(1.0 / 1.0005)
        out, ins = _clip(z1, z2, ball)
        assert ins == pytest.approx(2.0 * math.atanh(math.cos(theta_a)), abs=1e-9)
        assert out + ins == pytest.approx(H.hyp_distance(z1, z2), abs=1e-9)
