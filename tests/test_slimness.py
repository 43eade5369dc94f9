"""Tests for slimness measurements: sample distances, triangle slimness
and slimness sweeps."""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flatbundle import hyperbolic as H
from flatbundle.catalog import load_catalog_surface, load_group_preset
from flatbundle.errors import FlatBundleError
from flatbundle.paths import FiberPoint, build_preferred_path
from flatbundle.surface import FlatGeodesic, enumerate_saddle_connections
from flatbundle.veech import (
    build_group_data,
    build_horoball_family,
    family_balls,
    region_for,
)
from flatbundle import slimness as S

import oracles

deep_points = st.complex_numbers(max_magnitude=0.99).filter(lambda z: abs(z) < 0.99)
angles = st.floats(0.0, 2 * math.pi - 1e-9)


@pytest.fixture(scope="module")
def lshape_setup():
    s = load_catalog_surface("lshape")
    p = load_group_preset("lshape_lattice")
    g = build_group_data(s, p["basis"], p["words"], depth=6)
    saddles = enumerate_saddle_connections(s, 3.0)
    return s, build_horoball_family(g, saddles), saddles


class TestSampleDistances:
    def test_matrix_symmetry_and_self_zero(self, lshape_setup):
        # every pair distance is symmetric, and each sample of a side finds
        # itself: the side against itself is all 0.0
        s, fam, saddles = lshape_setup
        sc = saddles[0]
        reg = region_for(fam, sc.direction)
        x = FiberPoint(reg.anchor, sc.start)
        y = FiberPoint(0.2 + 0.1j, sc.end)
        path = build_preferred_path(x, y, fam, FlatGeodesic((sc,)))
        balls = family_balls(fam)
        samples = S.sample_path(path, {}, balls)
        assert S._farthest(samples, samples, balls, 0.0) == 0.0
        flat = oracles.samples_of(samples)
        assert oracles.nearest_distances(flat, flat, balls) == [0.0] * len(flat)
        d = oracles.sample_distance_matrix(flat, flat, balls)
        assert (d == d.T).all() and (np.diag(d) == 0.0).all()


segment_ends = st.tuples(deep_points, deep_points).filter(
    lambda e: H.hyp_distance(*e) > 1e-6
)


def _segment(z1, z2, n):
    return S._Segment(z1, z2, [(z, S._scale(z)) for z in H.segment_points(z1, z2, n)])


def _rho(z, q):
    return 2.0 * math.asinh(abs(z - q) / (S._scale(z) * S._scale(q)))


class TestClosedFormNearest:
    @given(segment_ends, st.integers(1, 60), deep_points)
    @settings(max_examples=300)
    @example((0.1 + 0.2j, -0.5j), 7, 0.4 + 0.4j)
    def test_nearest_sample_off_the_geodesic(self, ends, n, p):
        seg = _segment(*ends, n)
        assert min(_rho(p, q) for q, _ in seg.nearest(p)) == min(
            _rho(p, q) for q, _ in seg.points
        )

    @given(segment_ends, st.integers(1, 60), st.floats(-0.5, 1.5))
    @settings(max_examples=300)
    @example((0.1 + 0.2j, -0.5j), 7, 0.0)
    @example((0.1 + 0.2j, -0.5j), 7, 1.0)
    @example((0.1 + 0.2j, -0.5j), 7, 3.5 / 7)
    def test_nearest_sample_on_and_past_the_geodesic(self, ends, n, t):
        # t in [0, 1] lies on the segment; below 0 or above 1, past an end
        total = H.hyp_distance(*ends)
        p = oracles.segment_point(*ends, t * total)
        assume(abs(p) < 0.995)
        seg = _segment(*ends, n)
        assert min(_rho(p, q) for q, _ in seg.nearest(p)) == min(
            _rho(p, q) for q, _ in seg.points
        )

    @given(segment_ends, st.integers(1, 60), angles, st.floats(-3.0, 4.0))
    @settings(max_examples=300)
    def test_deepest_sample_toward_a_ball(self, ends, n, alpha, level):
        ball = H.Horoball(cmath.exp(1j * alpha), level)
        seg = _segment(*ends, n)
        assert min(S._ball_distance(q, ball) for q, _ in seg.deepest(ball.base)) == min(
            S._ball_distance(q, ball) for q, _ in seg.points
        )


class TestQuantiles:
    @given(st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=60))
    @settings(max_examples=300)
    def test_matches_numpy_linear(self, values):
        want = {
            f"q{int(100 * q):02d}": float(np.quantile(np.asarray(values), q))
            for q in S._QUANTILES
        }
        assert S._quantiles(values) == want

    def test_empty(self):
        assert S._quantiles([]) == {}


class TestTriangleSlimness:
    def test_degenerate_vertex(self, lshape_setup):
        s, fam, saddles = lshape_setup
        sc = saddles[0]
        reg = region_for(fam, sc.direction)
        x = FiberPoint(reg.anchor, sc.start)
        y = FiberPoint(reg.anchor, sc.end)
        # z = x: the side (x,y) coincides with the union of the others
        sides = (FlatGeodesic((sc,)), FlatGeodesic((sc.reverse(s),)), FlatGeodesic(()))
        delta = S.triangle_slimness(fam, x, y, x, sides)
        assert delta == pytest.approx(0.0, abs=S.DEFAULT_STEP)

    def test_sweep_finite(self, lshape_setup):
        s, fam, saddles = lshape_setup
        rep = S.slimness_sweep(s, fam, saddles, count=20, seed=1)
        assert rep.samples == 20
        assert math.isfinite(rep.delta_max)
        assert rep.delta_max == max(v for _, v in rep.per_triangle)
        assert rep.delta_quantiles["q100"] == pytest.approx(rep.delta_max)

    def test_deterministic_given_config(self, lshape_setup):
        s, fam, saddles = lshape_setup
        r1 = S.slimness_sweep(s, fam, saddles, count=8, seed=3)
        r2 = S.slimness_sweep(s, fam, saddles, count=8, seed=3)
        assert r1.per_triangle == r2.per_triangle

    def test_discretization_consistency(self, lshape_setup):
        s, fam, saddles = lshape_setup
        rng = random.Random(9)
        checked = 0
        while checked < 5:
            tri = S.random_triangle_chains(s, saddles, rng)
            if tri is None:
                continue
            a, b, third = tri
            try:
                ra = region_for(fam, a.direction)
                rb = region_for(fam, b.direction)
                x = FiberPoint(ra.anchor, a.start)
                y = FiberPoint(rb.anchor, a.end)
                z = FiberPoint(ra.anchor, b.end)
                sides = (FlatGeodesic((a,)), FlatGeodesic((b,)), third)
                d1 = S.triangle_slimness(fam, x, y, z, sides, step=0.05)
                d2 = S.triangle_slimness(fam, x, y, z, sides, step=0.025)
            except FlatBundleError:
                continue
            assert abs(d1 - d2) < 0.05
            checked += 1

    def test_sweep_counts_rejections(self, lshape_setup):
        s, fam, saddles = lshape_setup
        rep = S.slimness_sweep(s, fam, saddles, count=20, seed=2)
        assert rep.rejected and all(n > 0 for n in rep.rejected.values())
        assert rep.attempts == rep.samples + sum(rep.rejected.values())

    def test_matches_six_matrix_reference(self, lshape_setup):
        # the nearest-sample kernel gives exactly the all-pairs minimum of
        # its own scalar expressions, and the numpy six-matrix answer up to
        # the rounding of numpy's elementary functions
        s, fam, saddles = lshape_setup
        rng = random.Random(31)
        checked = 0
        while checked < 30:
            tri = S.random_triangle_chains(s, saddles, rng)
            if tri is None:
                continue
            a, b, third = tri
            try:
                ra = region_for(fam, a.direction)
                rb = region_for(fam, b.direction)
            except FlatBundleError:
                continue
            x = FiberPoint(ra.anchor, a.start)
            y = FiberPoint(rb.anchor, a.end)
            z = FiberPoint(rb.anchor, b.end)
            sides = (FlatGeodesic((a,)), FlatGeodesic((b,)), third)
            try:
                ref = oracles.triangle_slimness_by_pairs(fam, x, y, z, sides, step=0.05)
            except FlatBundleError:
                continue
            got = S.triangle_slimness(fam, x, y, z, sides)
            assert got == ref
            assert got == pytest.approx(
                oracles.triangle_slimness(fam, x, y, z, sides, step=0.05), abs=1e-12
            )
            checked += 1

    def test_matches_pairs_with_clearance(self):
        # octagon_cusped has point regions, whose saddle pieces carry fiber
        # clearance; the kernel reads each at its ends
        s = load_catalog_surface("octagon")
        p = load_group_preset("octagon_cusped")
        g = build_group_data(s, p["basis"], p["words"], depth=6)
        saddles = enumerate_saddle_connections(s, 2.5)
        fam = build_horoball_family(g, saddles)
        assert {reg.kind for reg in fam.values()} == {"ball", "point"}
        rng = random.Random(5)
        checked = 0
        while checked < 40:
            tri = S.random_triangle_chains(s, saddles, rng)
            if tri is None:
                continue
            a, b, third = tri
            try:
                x = FiberPoint(region_for(fam, a.direction).anchor, a.start)
                y = FiberPoint(region_for(fam, b.direction).anchor, a.end)
                last = third.pieces[-1].direction if third.pieces else a.direction
                z = FiberPoint(region_for(fam, last).anchor, b.end)
                sides = (FlatGeodesic((a,)), FlatGeodesic((b,)), third)
                ref = oracles.triangle_slimness_by_pairs(fam, x, y, z, sides, step=0.1)
            except FlatBundleError:
                continue
            assert S.triangle_slimness(fam, x, y, z, sides, step=0.1) == ref
            checked += 1

    def test_stability_split(self, lshape_setup):
        s, fam, saddles = lshape_setup
        rep = S.slimness_sweep(s, fam, saddles, count=16, seed=4)
        full, second = S.stability_split(rep)
        assert second <= full + 1e-12


class TestConvexCocompact:
    def test_no_parabolics_reports_finite_delta(self):
        # purely hyperbolic group: no balls, collapse is the identity
        s = load_catalog_surface("octagon")
        p = load_group_preset("octagon_hyperbolic")
        g = build_group_data(s, p["basis"], p["words"], depth=6)
        saddles = enumerate_saddle_connections(s, 3.0)
        fam = build_horoball_family(g, saddles)
        assert all(reg.kind == "point" for reg in fam.values())
        assert family_balls(fam) == []
        rep = S.slimness_sweep(s, fam, saddles, count=10, seed=2)
        assert rep.samples == 10
        assert math.isfinite(rep.delta_max)
        full, second = S.stability_split(rep)
        assert second <= full + 1e-12
