"""Tests for slimness measurements: sample distances, triangle slimness
and slimness sweeps."""

import cmath
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flatbundle import cli
from flatbundle import hyperbolic as H
from flatbundle.catalog import load_catalog_surface, load_group_preset
from flatbundle.errors import FlatBundleError
from flatbundle.paths import (
    FiberPoint,
    HorizontalPiece,
    PreferredPath,
    build_preferred_path,
    reverse_pairs,
)
from flatbundle.surface import Corner, FlatGeodesic, enumerate_saddle_connections
from flatbundle.veech import (
    VERIFY_LENGTH,
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
    g = build_group_data(
        enumerate_saddle_connections(s, VERIFY_LENGTH), p["basis"], p["words"], depth=6
    )
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
        samples = S.sample_path(path, {})
        assert S._farthest(samples, samples, balls, 0.0) == 0.0
        flat = oracles.samples_of(path, {}, S.DEFAULT_STEP)
        assert oracles.nearest_distances(flat, flat, balls) == [0.0] * len(flat)
        d = oracles.sample_distance_matrix(flat, flat, balls)
        assert (d == d.T).all() and (np.diag(d) == 0.0).all()


segment_ends = st.tuples(deep_points, deep_points).filter(
    lambda e: H.hyp_distance(*e) > 1e-6
)


def _samples(z1, z2, n):
    return [(z, S._scale(z)) for z in oracles.segment_points(z1, z2, n)]


def _rho(z, q):
    return 2.0 * math.asinh(abs(z - q) / (S._scale(z) * S._scale(q)))


class TestClosedFormNearest:
    @given(segment_ends, st.integers(1, 60), deep_points)
    @settings(max_examples=300)
    @example((0.1 + 0.2j, -0.5j), 7, 0.4 + 0.4j)
    def test_nearest_sample_off_the_geodesic(self, ends, n, p):
        seg = H.Segment(*ends, n)
        assert min(_rho(p, q) for q, _ in seg.nearest(p)) == min(
            _rho(p, q) for q, _ in _samples(*ends, n)
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
        seg = H.Segment(*ends, n)
        assert min(_rho(p, q) for q, _ in seg.nearest(p)) == min(
            _rho(p, q) for q, _ in _samples(*ends, n)
        )

    @given(segment_ends, st.integers(1, 60), angles, st.floats(-3.0, 4.0))
    @settings(max_examples=300)
    def test_deepest_sample_toward_a_ball(self, ends, n, alpha, level):
        ball = H.Horoball(cmath.exp(1j * alpha), level)
        seg = H.Segment(*ends, n)
        assert min(S._ball_distance(q, ball) for q, _ in seg.deepest(ball.base)) == min(
            S._ball_distance(q, ball) for q, _ in _samples(*ends, n)
        )


class TestLazySamples:
    @given(segment_ends, st.floats(0.005, 1.0))
    @settings(max_examples=300)
    @example((0.1 + 0.2j, -0.5j), 0.05)
    @example((-0.5j, 0.1 + 0.2j), 0.05)
    def test_sample_and_arc_position(self, ends, step):
        # sample k of a horizontal piece is segment_points' point k, as the
        # oracle lists it, and the oracle's arc position is (k / n) length
        # from the piece's lesser rounded end, computed as the forward run
        # computes it
        z1, z2 = ends
        path = PreferredPath((HorizontalPiece(z1, z2, Corner(0, 0)),))
        ((seg, _, h),) = S.sample_path(path, {}, step=step).lines
        n, length = seg.n, path.pieces[0].length
        assert h == length / n
        flip = S._round_z(z2) < S._round_z(z1)
        samples = oracles.samples_of(path, {}, step)
        assert len(samples) == n + 1
        for k, (z, _, _, s) in enumerate(samples):
            assert seg.point(k)[0] == z
            assert s == ((n - k if flip else k) / n) * length


def _setup(surface, group, cutoff):
    s = load_catalog_surface(surface)
    p = load_group_preset(group)
    g = build_group_data(
        enumerate_saddle_connections(s, VERIFY_LENGTH), p["basis"], p["words"], depth=6
    )
    saddles = enumerate_saddle_connections(s, cutoff)
    return s, build_horoball_family(g, saddles), saddles


class TestPruning:
    @pytest.mark.parametrize(
        "surface, group, step, count",
        [
            ("octagon", "octagon_cusped", 0.1, 8),
            ("octagon", "octagon_cusped", 0.05, 8),
            ("lshape", "lshape_lattice", 0.1, 16),
        ],
    )
    def test_positive_deltas_match_pairs(self, surface, group, step, count):
        # triangles whose delta is positive are the ones the skipped pieces
        # and the Lipschitz bound could get wrong (32 of them, at 5.0)
        s, fam, saddles = _setup(surface, group, 5.0)
        rng, pairs = random.Random(17), reverse_pairs(s, saddles)
        pools = S.class_pools(s, pairs)
        checked = 0
        while checked < count:
            tri = S.random_triangle_chains(s, pairs, pools, rng)
            if tri is None:
                continue
            a, b, third = tri
            try:
                x = FiberPoint(region_for(fam, a.direction).anchor, a.start)
                y = FiberPoint(region_for(fam, b.direction).anchor, a.end)
                last = third.pieces[-1].direction if third.pieces else a.direction
                z = FiberPoint(region_for(fam, last).anchor, b.end)
                sides = (FlatGeodesic((a,)), FlatGeodesic((b,)), third)
                got = S.triangle_slimness(fam, x, y, z, sides, step=step)
            except FlatBundleError:
                continue
            if got == 0.0:
                continue
            assert got == oracles.triangle_slimness_by_pairs(fam, x, y, z, sides, step=step)
            checked += 1

    def test_reversed_side_is_skipped(self, lshape_setup):
        # a piece run the other way has the same signature and bit-equal
        # arc positions, so rule (a) skips it and its distance is 0.0
        s, fam, saddles = lshape_setup
        balls = family_balls(fam)
        for sc in saddles:
            x, y = FiberPoint(0.1 + 0.2j, sc.start), FiberPoint(-0.3j, sc.end)
            there = build_preferred_path(x, y, fam, FlatGeodesic((sc,)))
            back = build_preferred_path(y, x, fam, FlatGeodesic((sc.reverse(s),)))
            table: dict = {}
            a, b = S.sample_path(there, table), S.sample_path(back, table)
            assert a.sigs == b.sigs
            assert S._farthest(a, b, balls, 0.0) == 0.0
            table = {}
            flat_a = oracles.samples_of(there, table, S.DEFAULT_STEP)
            flat_b = oracles.samples_of(back, table, S.DEFAULT_STEP)
            assert max(oracles.nearest_distances(flat_a, flat_b, balls)) == 0.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_no_rounding_noise_deltas(self, tmp_path, seed):
        # sides sharing a piece, run either way or as two records whose
        # holonomies differ in the last bits, meet at arc distance 0.0: a
        # delta is 0.0 or well above rounding (with arc positions computed
        # per record, 8, 11 and 12 of these 40 rows lay in (0, 1e-12))
        cli.run_experiment(cli.ExperimentConfig(
            surface="octagon", group="octagon_cusped", max_length=2.5, seed=seed,
            out=str(tmp_path),
        ))
        rows = (tmp_path / "deltas.csv").read_text().split("\n")[1:-1]
        deltas = [float(row.rsplit(",", 1)[1]) for row in rows]
        assert len(deltas) == 40
        assert [d for d in deltas if 0.0 < d < 1e-12] == []

    @pytest.mark.parametrize(
        "surface, group",
        [
            ("lshape", "lshape_lattice"),
            ("octagon", "octagon_cusped"),
            ("octagon", "octagon_hyperbolic"),
        ],
    )
    @pytest.mark.parametrize("cutoff", [2.5, 5.0])
    def test_shared_signatures_share_arc_positions(
        self, monkeypatch, tmp_path, surface, group, cutoff
    ):
        # rule (a) skips a piece whose signature the other sides hold; that
        # is exact because the sides of a triangle that hold one signature
        # hold its samples at the same arc positions (with each piece's own
        # length, two parallel connections of octagon_cusped at 2.5, seed 2,
        # differ in the last bits)
        calls = []
        sample_path = S.sample_path

        def recording_sample_path(path, table, *, step):
            calls.append((table, path, step))
            return sample_path(path, table, step=step)

        monkeypatch.setattr(S, "sample_path", recording_sample_path)
        shared = 0
        for seed in (1, 2, 3):
            calls.clear()
            cli.run_experiment(cli.ExperimentConfig(
                surface=surface, group=group, max_length=cutoff, seed=seed,
                out=str(tmp_path),
            ))
            for _, tri in itertools.groupby(calls, key=lambda call: id(call[0])):
                table, arcs = {}, []
                for _, path, step in tri:
                    arcs.append({})
                    for _, _, g, s in oracles.samples_of(path, table, step):
                        arcs[-1].setdefault(g, set()).add(s)
                for g in set().union(*arcs):
                    held = [side[g] for side in arcs if g in side]
                    shared += len(held) > 1
                    assert all(s == held[0] for s in held)
        assert shared > 0

    def test_sweep_measures_few_samples(self, monkeypatch):
        # every measured sample of a horizontal piece costs one base travel,
        # and a saddle piece at most one; the seed-1 sweep of a
        # lshape_lattice run at --max-length 2.5 measures 830 of its 13622
        # samples, and 6517 without the Lipschitz bound
        s, fam, saddles = _setup("lshape", "lshape_lattice", 2.5)
        samples = measured = 0
        sample_path, base_distance = S.sample_path, S._base_distance

        def counting_sample_path(path, table, *, step):
            nonlocal samples
            samples += len(oracles.samples_of(path, dict(table), step))
            return sample_path(path, table, step=step)

        def counting_base_distance(*args):
            nonlocal measured
            measured += 1
            return base_distance(*args)

        monkeypatch.setattr(S, "sample_path", counting_sample_path)
        monkeypatch.setattr(S, "_base_distance", counting_base_distance)
        rep = S.slimness_sweep(s, fam, reverse_pairs(s, saddles), count=40, seed=1)
        assert rep.samples == 40 and samples > 10_000
        assert measured < 0.2 * samples


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
        rep = S.slimness_sweep(s, fam, reverse_pairs(s, saddles), count=20, seed=1)
        assert rep.samples == 20
        assert math.isfinite(rep.delta_max)
        assert rep.delta_max == max(v for _, v in rep.per_triangle)
        assert rep.delta_quantiles["q100"] == pytest.approx(rep.delta_max)

    def test_deterministic_given_config(self, lshape_setup):
        s, fam, saddles = lshape_setup
        r1 = S.slimness_sweep(s, fam, reverse_pairs(s, saddles), count=8, seed=3)
        r2 = S.slimness_sweep(s, fam, reverse_pairs(s, saddles), count=8, seed=3)
        assert r1.per_triangle == r2.per_triangle

    def test_discretization_consistency(self, lshape_setup):
        s, fam, saddles = lshape_setup
        rng, pairs = random.Random(9), reverse_pairs(s, saddles)
        pools = S.class_pools(s, pairs)
        checked = 0
        while checked < 5:
            tri = S.random_triangle_chains(s, pairs, pools, rng)
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
        rep = S.slimness_sweep(s, fam, reverse_pairs(s, saddles), count=20, seed=2)
        assert rep.rejected and all(n > 0 for n in rep.rejected.values())
        assert rep.attempts == rep.samples + sum(rep.rejected.values())

    def test_matches_six_matrix_reference(self, lshape_setup):
        # the nearest-sample kernel gives exactly the all-pairs minimum of
        # its own scalar expressions, and the numpy six-matrix answer up to
        # the rounding of numpy's elementary functions
        s, fam, saddles = lshape_setup
        rng, pairs = random.Random(31), reverse_pairs(s, saddles)
        pools = S.class_pools(s, pairs)
        checked = 0
        while checked < 30:
            tri = S.random_triangle_chains(s, pairs, pools, rng)
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
        g = build_group_data(
            enumerate_saddle_connections(s, VERIFY_LENGTH), p["basis"], p["words"], depth=6
        )
        saddles = enumerate_saddle_connections(s, 2.5)
        fam = build_horoball_family(g, saddles)
        assert {reg.kind for reg in fam.values()} == {"ball", "point"}
        rng, pairs = random.Random(5), reverse_pairs(s, saddles)
        pools = S.class_pools(s, pairs)
        checked = 0
        while checked < 40:
            tri = S.random_triangle_chains(s, pairs, pools, rng)
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
        rep = S.slimness_sweep(s, fam, reverse_pairs(s, saddles), count=16, seed=4)
        full, second = S.stability_split(rep)
        assert second <= full + 1e-12


class TestConvexCocompact:
    def test_no_parabolics_reports_finite_delta(self):
        # purely hyperbolic group: no balls, collapse is the identity
        s = load_catalog_surface("octagon")
        p = load_group_preset("octagon_hyperbolic")
        g = build_group_data(
            enumerate_saddle_connections(s, VERIFY_LENGTH), p["basis"], p["words"], depth=6
        )
        saddles = enumerate_saddle_connections(s, 3.0)
        fam = build_horoball_family(g, saddles)
        assert all(reg.kind == "point" for reg in fam.values())
        assert family_balls(fam) == []
        rep = S.slimness_sweep(s, fam, reverse_pairs(s, saddles), count=10, seed=2)
        assert rep.samples == 10
        assert math.isfinite(rep.delta_max)
        full, second = S.stability_split(rep)
        assert second <= full + 1e-12
