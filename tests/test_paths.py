"""Tests for the bundle-path machinery: fiber maps, preferred paths,
collapsed lengths, fans, span sets, and combinatorial paths."""

import math
import random
from collections import Counter

import pytest

from flatbundle.catalog import load_catalog_surface, load_group_preset
from flatbundle.errors import (
    FlatBundleError,
    MissingHoroRegion,
    NoClosureFound,
    NotAFan,
    NotFound,
)
from flatbundle.hyperbolic import busemann, hyp_distance, saddle_length_at
from flatbundle.surface import (
    FlatGeodesic,
    enumerate_saddle_connections,
    tighten_chain,
)
from flatbundle.veech import (
    build_group_data,
    build_horoball_family,
    region_for,
)
from flatbundle import paths as P


def _group(surface, name, **kw):
    preset = load_group_preset(name)
    return build_group_data(
        surface,
        preset["generators"],
        depth=preset.get("depth", 6),
        verify_basis=preset.get("verify_basis"),
        verify_words=preset.get("verify_words"),
        **kw,
    )


@pytest.fixture(scope="module")
def lshape():
    return load_catalog_surface("lshape")


@pytest.fixture(scope="module")
def lshape_saddles(lshape):
    return enumerate_saddle_connections(lshape, 3.0)


@pytest.fixture(scope="module")
def lshape_family(lshape, lshape_saddles):
    gdata = _group(lshape, "lshape_lattice")
    return build_horoball_family(gdata, lshape_saddles)


@pytest.fixture(scope="module")
def octagon():
    return load_catalog_surface("octagon")


@pytest.fixture(scope="module")
def octagon_saddles(octagon):
    return enumerate_saddle_connections(octagon, 3.5)


def _sample_fans(surface, saddles, rng, count):
    fans = []
    while len(fans) < count:
        fan = P.random_fan(surface, saddles, rng)
        if fan is not None:
            fans.append(fan)
    return fans


class TestFiberMap:
    def test_identity(self):
        z = 0.3 - 0.2j
        assert P.fiber_map(z, z, 1.5 + 0.7j) == pytest.approx(1.5 + 0.7j)

    def test_matches_length_function_at_center(self):
        # the fiber over the disk center carries the unmarked flat metric
        rng = random.Random(0)
        for _ in range(20):
            X = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            hol = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert abs(P.fiber_map(X, 0j, hol)) == pytest.approx(
                saddle_length_at(X, hol), abs=1e-12
            )

    def test_flow_toward_direction_contracts_at_half_rate(self):
        # moving distance t along the ray toward the direction of hol scales
        # the transported length by exp(-t/2): the unit-slope horocycle
        # level function is the log of the squared length
        hol = 1.0 + 0.0j
        xi = 1.0 + 0.0j
        for t in (0.5, 1.0, 2.0):
            X = math.tanh(0.5 * t) * xi
            out = abs(P.fiber_map(X, 0j, hol))
            assert math.log(out) == pytest.approx(
                -0.5 * busemann(xi, X), abs=1e-9
            )
            assert out == pytest.approx(math.exp(-0.5 * t), abs=1e-9)

    def test_composition_law(self):
        rng = random.Random(3)
        for _ in range(30):
            X, Y, Z = (
                complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
                for _ in range(3)
            )
            v = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            lhs = P.fiber_map(X, Y, P.fiber_map(Y, Z, v))
            rhs = P.fiber_map(X, Z, v)
            assert abs(lhs - rhs) < 1e-12

    def test_bilipschitz_bound(self):
        rng = random.Random(4)
        for _ in range(30):
            X = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            Y = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            v = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            rho = hyp_distance(X, Y)
            ratio = abs(P.fiber_map(X, Y, v)) / abs(v)
            assert math.exp(-rho) - 1e-9 <= ratio <= math.exp(rho) + 1e-9


class TestPreferredPath:
    def test_degenerate_path(self, lshape, lshape_saddles, lshape_family):
        x = P.FiberPoint(0.1 + 0.1j, lshape_saddles[0].start)
        path = P.build_preferred_path(lshape, x, x, lshape_family, [])
        assert len(path.pieces) == 1
        assert path.d_length == pytest.approx(0.0)

    def test_single_saddle_at_its_base(
        self, lshape, lshape_saddles, lshape_family
    ):
        sc = lshape_saddles[0]
        reg = region_for(lshape_family, sc.direction)
        x = P.FiberPoint(reg.anchor, sc.start)
        y = P.FiberPoint(reg.anchor, sc.end)
        path = P.build_preferred_path(lshape, x, y, lshape_family, [sc])
        assert len(path.pieces) == 3
        h0, mid, h2 = path.pieces
        assert h0.length == pytest.approx(0.0, abs=1e-12)
        assert h2.length == pytest.approx(0.0, abs=1e-12)
        assert path.d_length == pytest.approx(
            saddle_length_at(reg.anchor, sc.holonomy)
        )

    def test_alternation_and_continuity(
        self, lshape, lshape_saddles, lshape_family
    ):
        rng = random.Random(11)
        done = 0
        while done < 20:
            a, b = rng.choice(lshape_saddles), rng.choice(lshape_saddles)
            x = P.FiberPoint(0j, a.start)
            y = P.FiberPoint(0.2 - 0.1j, b.end)
            try:
                path = P.build_preferred_path(
                    lshape, x, y, lshape_family, [a, b]
                )
            except (MissingHoroRegion, FlatBundleError):
                continue  # tightening can leave the enumerated family
            done += 1
            assert len(path.pieces) % 2 == 1
            for i, piece in enumerate(path.pieces):
                expected = (
                    P.HorizontalPiece if i % 2 == 0 else P.SaddlePiece
                )
                assert isinstance(piece, expected)
            residuals = P.junction_residuals(lshape, path)
            assert all(r < 1e-9 for r in residuals)

    def test_missing_direction_raises(self, lshape, lshape_saddles):
        sparse = {}  # empty family: every direction is missing
        x = P.FiberPoint(0j, lshape_saddles[0].start)
        y = P.FiberPoint(0j, lshape_saddles[0].end)
        with pytest.raises(MissingHoroRegion):
            P.build_preferred_path(
                lshape, x, y, sparse, [lshape_saddles[0]]
            )


class TestDirectionGraphs:
    def test_unclosed_directions_are_values(self, lshape, lshape_family):
        # at this budget most separatrices stay open; each ball direction
        # still gets an entry, the graph or the NoClosureFound
        graphs = P.build_direction_graphs(lshape, lshape_family, max_trace=0.5)
        balls = [k for k, reg in lshape_family.items() if reg.kind == "ball"]
        assert sorted(graphs) == sorted(balls)
        unclosed = [g for g in graphs.values() if isinstance(g, NoClosureFound)]
        assert (len(unclosed), len(graphs)) == (7, 8)


class TestCollapsedLength:
    def test_lipschitz_over_random_paths(
        self, lshape, lshape_saddles, lshape_family
    ):
        rng = random.Random(12)
        done = 0
        while done < 100:
            a, b = rng.choice(lshape_saddles), rng.choice(lshape_saddles)
            x = P.FiberPoint(0j, a.start)
            y = P.FiberPoint(
                complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)),
                b.end,
            )
            try:
                path = P.build_preferred_path(
                    lshape, x, y, lshape_family, [a, b]
                )
            except (MissingHoroRegion, FlatBundleError):
                continue
            done += 1
            collapsed = P.collapsed_length(lshape, path, lshape_family)
            assert collapsed <= path.d_length + 1e-12

    def test_no_balls_means_no_collapse(self, octagon, octagon_saddles):
        # purely hyperbolic group: the family has no balls, nothing collapses
        gdata = _group(octagon, "octagon_hyperbolic")
        family = build_horoball_family(gdata, octagon_saddles)
        assert all(reg.kind == "point" for reg in family.values())
        sc = octagon_saddles[0]
        x = P.FiberPoint(gdata.basepoint, sc.start)
        y = P.FiberPoint(gdata.basepoint, sc.end)
        path = P.build_preferred_path(octagon, x, y, family, [sc])
        collapsed = P.collapsed_length(octagon, path, family)
        assert collapsed == pytest.approx(path.d_length, abs=1e-9)

    def test_parabolic_saddle_collapses_to_zero(
        self, lshape, lshape_saddles, lshape_family
    ):
        sc = lshape_saddles[0]
        reg = region_for(lshape_family, sc.direction)
        assert reg.kind == "ball"
        x = P.FiberPoint(reg.anchor, sc.start)
        y = P.FiberPoint(reg.anchor, sc.end)
        path = P.build_preferred_path(lshape, x, y, lshape_family, [sc])
        collapsed = P.collapsed_length(lshape, path, lshape_family)
        assert collapsed == pytest.approx(0.0, abs=1e-9)


class TestFans:
    def test_euclidean_triangle_is_k1_fan(self, octagon, octagon_saddles):
        rng = random.Random(21)
        found = 0
        while found < 5:
            fan = P.random_fan(octagon, octagon_saddles, rng)
            if fan is None or fan.k != 1:
                continue
            found += 1
            t0, s1, t1 = fan.triangles()[0]
            assert abs(t0.holonomy + s1.holonomy - t1.holonomy) < 1e-9

    def test_empty_bottom_rejected(self, octagon, octagon_saddles):
        with pytest.raises(NotAFan):
            P.build_fan(octagon, octagon_saddles[0], FlatGeodesic(()))

    def test_structure_lemma_random_sweep(self, octagon, octagon_saddles):
        rng = random.Random(22)
        fans = _sample_fans(octagon, octagon_saddles, rng, 100)
        for fan in fans:
            report = P.check_structure_lemma(fan)
            assert report.ok, (fan.k, report.offending)

    def test_structure_lemma_other_surfaces(self, lshape, lshape_saddles):
        rng = random.Random(23)
        for fan in _sample_fans(lshape, lshape_saddles, rng, 40):
            assert P.check_structure_lemma(fan).ok

    def test_parallel_bottom_passes_with_equality(
        self, octagon, octagon_saddles
    ):
        # a geodesic bottom of two parallel connections gives equal ideal
        # vertices; the cyclic-order check must accept the equality
        found = False
        for fan_seed in range(200):
            rng = random.Random(1000 + fan_seed)
            fan = P.random_fan(octagon, octagon_saddles, rng)
            if fan is None or fan.k < 2:
                continue
            dirs = [sc.direction for sc in fan.bottom]
            if any(
                abs(dirs[i] - dirs[i + 1]) < 1e-9
                for i in range(len(dirs) - 1)
            ):
                assert P.check_structure_lemma(fan).ok
                found = True
                break
        assert found, "no fan with parallel bottom connections sampled"


class TestDecomposition:
    @staticmethod
    def _canon(h):
        r, i = round(h.real, 7) + 0.0, round(h.imag, 7) + 0.0
        if r < 0 or (r == 0 and i < 0):
            r, i = -r + 0.0, -i + 0.0
        return (r, i)

    def _random_triangle(self, surface, saddles, rng):
        a = rng.choice(saddles)
        c1, c2 = rng.choice(saddles), rng.choice(saddles)
        if rng.random() < 0.5:
            c1 = c1.reverse(surface)
        if rng.random() < 0.5:
            c2 = c2.reverse(surface)
        side_b = tighten_chain(surface, [c1, c2])
        side_c = tighten_chain(
            surface,
            [c2.reverse(surface), c1.reverse(surface), a.reverse(surface)],
        )
        return FlatGeodesic((a,)), side_b, side_c

    def test_reassembly_multiset(self, octagon, octagon_saddles):
        rng = random.Random(7)
        checked = 0
        while checked < 15:
            try:
                sides = self._random_triangle(octagon, octagon_saddles, rng)
                fans = P.decompose_into_fans(octagon, *sides)
            except FlatBundleError:
                continue
            if not fans:
                continue
            checked += 1
            got = Counter()
            for fan in fans:
                for sc in fan.bottom:
                    got[self._canon(sc.holonomy)] += 1
                got[self._canon(fan.top_start.holonomy)] += 1
                got[self._canon(fan.top_end.holonomy)] += 1
            exp = Counter()
            for side in P.reduce_degenerate(octagon, *sides):
                for sc in side.pieces:
                    exp[self._canon(sc.holonomy)] += 1
            # triangle sides appear once; internal chords appear twice
            assert not (exp - got)
            assert all(v % 2 == 0 for v in (got - exp).values())

    def test_two_single_sides_is_one_fan(self, octagon, octagon_saddles):
        rng = random.Random(8)
        done = 0
        while done < 5:
            fan = P.random_fan(octagon, octagon_saddles, rng)
            if fan is None:
                continue
            sides = (
                FlatGeodesic((fan.top_start,)),
                FlatGeodesic(tuple(fan.bottom)),
                FlatGeodesic((fan.top_end.reverse(octagon),)),
            )
            fans = P.decompose_into_fans(octagon, *sides)
            assert len(fans) == 1
            assert fans[0].k == fan.k
            done += 1

    def test_degenerate_prefix_stripped(self, octagon, octagon_saddles):
        a, c, d = octagon_saddles[0], octagon_saddles[2], octagon_saddles[3]
        prev = FlatGeodesic((c, a))
        nxt = FlatGeodesic((a.reverse(octagon), d))
        third = FlatGeodesic(())
        ra, rb, _ = P.reduce_degenerate(octagon, prev, nxt, third)
        assert [sc.key() for sc in ra.pieces] == [c.key()]
        assert [sc.key() for sc in rb.pieces] == [d.key()]

    def test_fully_cancelling_sides_reduce_to_nothing(
        self, octagon, octagon_saddles
    ):
        a, b = octagon_saddles[0], octagon_saddles[1]
        prev = FlatGeodesic((b, a))
        nxt = FlatGeodesic((a.reverse(octagon), b.reverse(octagon)))
        third = FlatGeodesic(())
        reduced = P.reduce_degenerate(octagon, prev, nxt, third)
        assert all(not side.pieces for side in reduced)

    def test_fully_degenerate_yields_no_fans(self, octagon, octagon_saddles):
        a = octagon_saddles[0]
        sides = (
            FlatGeodesic((a,)),
            FlatGeodesic((a.reverse(octagon),)),
            FlatGeodesic(()),
        )
        assert P.decompose_into_fans(octagon, *sides) == []


class TestSpanSet:
    def test_self_pool_empty(self, octagon, octagon_saddles):
        sigma = octagon_saddles[0]
        assert P.span_set(octagon, sigma, [sigma]) == []

    def test_euclidean_triangle_sides_span(self, octagon, octagon_saddles):
        rng = random.Random(31)
        fan = None
        while fan is None or fan.k != 1:
            fan = P.random_fan(octagon, octagon_saddles, rng)
        t0, s1, t1 = fan.triangles()[0]
        assert P.spans_triangle(octagon, t0, t1)
        assert P.spans_triangle(octagon, t0, s1)

    def test_symmetry(self, octagon):
        pool = enumerate_saddle_connections(octagon, 2.0)
        for i, a in enumerate(pool):
            for b in pool[i + 1:]:
                assert P.spans_triangle(octagon, a, b) == P.spans_triangle(
                    octagon, b, a
                )

    def test_span_closing_holonomy_exists(self, octagon):
        # the closing side of every spanning pair is itself a saddle
        # connection, so its holonomy must be a difference or sum of the
        # pair's holonomies and appear in a long-enough enumeration
        pool = enumerate_saddle_connections(octagon, 2.0)
        deep = {
            TestDecomposition._canon(sc.holonomy)
            for sc in enumerate_saddle_connections(octagon, 4.2)
        }
        deep.add((0.0, 0.0))
        for a in pool[:6]:
            for b in P.span_set(octagon, a, pool):
                combos = [
                    b.holonomy - a.holonomy,
                    b.holonomy + a.holonomy,
                ]
                assert any(
                    TestDecomposition._canon(c) in deep for c in combos
                )


class TestCombinatorialPath:
    def test_same_node(self, lshape_family):
        key = next(iter(lshape_family))
        path = P.combinatorial_path(lshape_family, key, key)
        assert isinstance(path, P.CombinatorialPath)
        assert path.length == 0

    def test_reachable(self, lshape_family):
        keys = sorted(lshape_family)
        path = P.combinatorial_path(lshape_family, keys[0], keys[-1])
        assert isinstance(path, P.CombinatorialPath)
        assert path.length >= 1
        assert path.keys[0] == keys[0] and path.keys[-1] == keys[-1]

    def test_budget_exhaustion_is_a_value(self, lshape_family):
        keys = sorted(lshape_family)
        result = P.combinatorial_path(
            lshape_family, keys[0], keys[-1], budget=0
        )
        assert isinstance(result, NotFound)

    def test_perturbed_direction_matches_region_for(self, lshape_family):
        for key in sorted(lshape_family):
            theta = key + 5e-8
            assert region_for(lshape_family, theta) is lshape_family[key]
            path = P.combinatorial_path(lshape_family, theta, theta)
            assert path.keys == (key,)

    def test_unknown_direction_raises(self, lshape_family):
        with pytest.raises(MissingHoroRegion):
            P.combinatorial_path(lshape_family, 0.123456, 0.654321)
