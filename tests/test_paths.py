"""Tests for the bundle-path machinery: fiber lengths, preferred paths,
collapsed lengths, fans, and combinatorial paths."""

import math
import random

import pytest

from flatbundle.catalog import load_catalog_surface, load_group_preset
from flatbundle.errors import (
    FlatBundleError,
    MissingHoroRegion,
    NoClosureFound,
    NoCylinders,
    NotAFan,
    NotAGeodesic,
)
from flatbundle.hyperbolic import (
    Horoball,
    Mobius,
    busemann,
    hyp_distance,
    saddle_length_at,
    structure_matrix,
    uhp_from_disk,
)
from flatbundle.surface import (
    Corner,
    FlatGeodesic,
    enumerate_saddle_connections,
    tighten_chain,
)
from flatbundle.veech import (
    VERIFY_LENGTH,
    HoroRegion,
    build_group_data,
    build_horoball_family,
    region_for,
)
from flatbundle import hyperbolic
from flatbundle import paths as P

import oracles


def _group(surface, name):
    preset = load_group_preset(name)
    return build_group_data(
        enumerate_saddle_connections(surface, VERIFY_LENGTH), preset["basis"], preset["words"]
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
    fans, pairs = [], P.reverse_pairs(surface, saddles)
    while len(fans) < count:
        fan = P.random_fan(surface, pairs, rng)
        if fan is not None:
            fans.append(fan)
    return fans


def _act(g, hol):
    # the linear action of an SL(2, R) element on a holonomy vector
    return complex(g.a * hol.real + g.b * hol.imag, g.c * hol.real + g.d * hol.imag)


def _random_sl2(rng):
    a = rng.uniform(0.7, 1.4)
    b, c = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    return Mobius.from_matrix(((a, b), (c, (1.0 + b * c) / a)))


class TestFiberMap:
    # the fiber over a disk point carries the flat metric whose lengths
    # saddle_length_at evaluates

    def test_identity(self):
        # the disk center carries the base flat structure itself
        assert structure_matrix(0j) == pytest.approx((1.0, 0.0, 0.0, 1.0), abs=1e-15)

    def test_matches_length_function_at_center(self):
        # the fiber over the disk center carries the unmarked flat metric,
        # and the disk and half-plane forms of the length function agree
        rng = random.Random(0)
        for _ in range(20):
            X = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            hol = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert saddle_length_at(0j, hol) == pytest.approx(abs(hol), abs=1e-12)
            assert saddle_length_at(X, hol) == pytest.approx(
                oracles.saddle_length_at_uhp(uhp_from_disk(X), hol), abs=1e-12
            )

    def test_flow_toward_direction_contracts_at_half_rate(self):
        # moving distance t along the ray toward the direction of hol scales
        # its length by exp(-t/2): the unit-slope horocycle level function
        # is the log of the squared length
        hol = 1.0 + 0.0j
        xi = 1.0 + 0.0j
        for t in (0.5, 1.0, 2.0):
            X = math.tanh(0.5 * t) * xi
            out = saddle_length_at(X, hol)
            assert math.log(out) == pytest.approx(
                -0.5 * busemann(xi, X), abs=1e-9
            )
            assert out == pytest.approx(math.exp(-0.5 * t), abs=1e-9)

    def test_composition_law(self):
        # g carries the fiber over z isometrically to the fiber over g z,
        # and doing h then g is the same map as doing g @ h
        rng = random.Random(3)
        for _ in range(30):
            g, h = _random_sl2(rng), _random_sl2(rng)
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            v = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            base = saddle_length_at(z, v)
            stepwise = saddle_length_at(
                g.apply_disk(h.apply_disk(z)), _act(g, _act(h, v))
            )
            composed = saddle_length_at((g @ h).apply_disk(z), _act(g @ h, v))
            assert stepwise == pytest.approx(base, rel=1e-9)
            assert composed == pytest.approx(base, rel=1e-9)

    def test_bilipschitz_bound(self):
        # comparing the fibers over X and Y stretches a length by at most
        # exp(rho(X, Y) / 2), the Teichmuller distance
        rng = random.Random(4)
        for _ in range(30):
            X = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            Y = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            v = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            half_rho = 0.5 * hyp_distance(X, Y)
            ratio = saddle_length_at(X, v) / saddle_length_at(Y, v)
            assert math.exp(-half_rho) - 1e-9 <= ratio <= math.exp(half_rho) + 1e-9


class TestPreferredPath:
    def test_degenerate_path(self, lshape, lshape_saddles, lshape_family):
        x = P.FiberPoint(0.1 + 0.1j, lshape_saddles[0].start)
        path = P.build_preferred_path(x, x, lshape_family, FlatGeodesic(()))
        assert len(path.pieces) == 1
        assert path.d_length == pytest.approx(0.0)

    def test_single_saddle_at_its_base(
        self, lshape, lshape_saddles, lshape_family
    ):
        sc = lshape_saddles[0]
        reg = region_for(lshape_family, sc.direction)
        x = P.FiberPoint(reg.anchor, sc.start)
        y = P.FiberPoint(reg.anchor, sc.end)
        path = P.build_preferred_path(x, y, lshape_family, FlatGeodesic((sc,)))
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
                    x, y, lshape_family, tighten_chain(lshape, [a, b])
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
            # consecutive pieces meet at one base point and one cone class
            for a, b in zip(path.pieces, path.pieces[1:]):
                if isinstance(a, P.HorizontalPiece):
                    za, zb, ca, cb = a.end, b.at_base, a.fiber, b.connection.start
                else:
                    za, zb, ca, cb = a.at_base, b.start, a.connection.end, b.fiber
                assert hyp_distance(za, zb) < 1e-9
                assert lshape.class_of(ca) is lshape.class_of(cb)

    def test_missing_direction_raises(self, lshape, lshape_saddles):
        sparse = {}  # empty family: every direction is missing
        x = P.FiberPoint(0j, lshape_saddles[0].start)
        y = P.FiberPoint(0j, lshape_saddles[0].end)
        with pytest.raises(MissingHoroRegion):
            P.build_preferred_path(
                x, y, sparse, FlatGeodesic((lshape_saddles[0],))
            )


class TestDirectionGraphs:
    def test_unclosed_directions_are_values(self, lshape, lshape_family):
        # at this budget most separatrices stay open; each ball direction
        # still gets an entry, the decomposition or the NoClosureFound
        graphs = P.build_direction_graphs(lshape, lshape_family, max_trace=0.5)
        balls = [k for k, reg in lshape_family.items() if reg.kind == "ball"]
        assert sorted(graphs) == sorted(balls)
        unclosed = [g for g in graphs.values() if isinstance(g, NoClosureFound)]
        assert (len(unclosed), len(graphs)) == (7, 8)

    def test_failed_assembly_is_kept_per_direction(
        self, lshape, lshape_family, monkeypatch
    ):
        # one direction whose cylinders do not assemble maps to its
        # NoCylinders; the other directions are traced as before
        bad = sorted(k for k, reg in lshape_family.items() if reg.kind == "ball")[0]
        trace = P.trace_direction

        def failing(surface, theta, max_trace):
            if round(theta, 8) == bad:
                raise NoCylinders("cylinder areas do not tile the surface")
            return trace(surface, theta, max_trace)

        monkeypatch.setattr(P, "trace_direction", failing)
        graphs = P.build_direction_graphs(lshape, lshape_family)
        assert isinstance(graphs[bad], NoCylinders)
        assert not any(
            isinstance(g, FlatBundleError) for k, g in graphs.items() if k != bad
        )


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
                    x, y, lshape_family, tighten_chain(lshape, [a, b])
                )
            except (MissingHoroRegion, FlatBundleError):
                continue
            done += 1
            collapsed = P.collapsed_length(path, lshape_family)
            assert collapsed <= path.d_length + 1e-12

    def test_no_balls_means_no_collapse(self, octagon, octagon_saddles):
        # purely hyperbolic group: the family has no balls, nothing collapses
        gdata = _group(octagon, "octagon_hyperbolic")
        family = build_horoball_family(gdata, octagon_saddles)
        assert all(reg.kind == "point" for reg in family.values())
        sc = octagon_saddles[0]
        x = P.FiberPoint(gdata.basepoint, sc.start)
        y = P.FiberPoint(gdata.basepoint, sc.end)
        path = P.build_preferred_path(x, y, family, FlatGeodesic((sc,)))
        collapsed = P.collapsed_length(path, family)
        assert collapsed == pytest.approx(path.d_length, abs=1e-9)

    def test_no_balls_means_no_clip(self, monkeypatch, octagon, octagon_saddles):
        # without a ball the clip returns before it maps a horizontal piece
        # onto the axis, which takes one ideal_endpoints call per piece
        gdata = _group(octagon, "octagon_hyperbolic")
        family = build_horoball_family(gdata, octagon_saddles)
        sc = octagon_saddles[0]
        x = P.FiberPoint(gdata.basepoint, sc.start)
        y = P.FiberPoint(gdata.basepoint + 0.3 - 0.2j, sc.end)
        path = P.build_preferred_path(x, y, family, FlatGeodesic((sc,)))
        assert any(
            isinstance(piece, P.HorizontalPiece) and piece.length > 0.1
            for piece in path.pieces
        )
        calls = []
        ideal_endpoints = hyperbolic.ideal_endpoints
        monkeypatch.setattr(
            hyperbolic,
            "ideal_endpoints",
            lambda *args: calls.append(args) or ideal_endpoints(*args),
        )
        assert P.collapsed_length(path, family) == pytest.approx(path.d_length, abs=1e-9)
        assert calls == []

    def test_parabolic_saddle_collapses_to_zero(
        self, lshape, lshape_saddles, lshape_family
    ):
        sc = lshape_saddles[0]
        reg = region_for(lshape_family, sc.direction)
        assert reg.kind == "ball"
        x = P.FiberPoint(reg.anchor, sc.start)
        y = P.FiberPoint(reg.anchor, sc.end)
        path = P.build_preferred_path(x, y, lshape_family, FlatGeodesic((sc,)))
        collapsed = P.collapsed_length(path, lshape_family)
        assert collapsed == pytest.approx(0.0, abs=1e-9)

    def test_horizontal_piece_loses_its_inside(self):
        # no preset path enters a ball, so the clip is checked on a made-up
        # family: a chord through the ball at i loses the sampled inside
        # length, and a ball the chord misses takes nothing
        near, far = Horoball(1j, 0.5), Horoball(-1j, 0.0)
        family = {
            k: HoroRegion("ball", 0.0, ball.base, 0j, ball)
            for k, ball in enumerate((near, far))
        }
        piece = P.HorizontalPiece(-0.6 + 0.5j, 0.6 + 0.5j, Corner(0, 0))
        _outside, inside = oracles.clip_by_horoball(piece.start, piece.end, near)
        assert 0.5 < inside < piece.length
        collapsed = P.collapsed_length(P.PreferredPath((piece,)), family)
        assert collapsed == pytest.approx(piece.length - inside, abs=1e-9)


class TestFans:
    def test_euclidean_triangle_is_k1_fan(self, octagon, octagon_saddles):
        rng = random.Random(21)
        pairs = P.reverse_pairs(octagon, octagon_saddles)
        found = 0
        while found < 5:
            fan = P.random_fan(octagon, pairs, rng)
            if fan is None or fan.k != 1:
                continue
            found += 1
            t0, s1, t1 = fan.triangles()[0]
            assert abs(t0.holonomy + s1.holonomy - t1.holonomy) < 1e-9

    @pytest.mark.parametrize("surface", ["lshape", "octagon"])
    def test_random_fan_matches_reference(self, surface, request):
        # rejecting locally geodesic draws before tightening loses no fan
        s = request.getfixturevalue(surface)
        saddles = request.getfixturevalue(f"{surface}_saddles")
        fans, pairs = 0, P.reverse_pairs(s, saddles)
        for seed in range(250):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            fan = P.random_fan(s, pairs, rng)
            assert fan == oracles.random_fan(s, saddles, ref_rng)
            assert rng.random() == ref_rng.random()
            fans += fan is not None
        assert fans > 25

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
        found, pairs = False, P.reverse_pairs(octagon, octagon_saddles)
        for fan_seed in range(200):
            rng = random.Random(1000 + fan_seed)
            fan = P.random_fan(octagon, pairs, rng)
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


class TestCombinatorialPath:
    def test_same_node(self, lshape_family):
        key = next(iter(lshape_family))
        path = P.combinatorial_path(
            lshape_family, key, key, P.family_adjacency(lshape_family)
        )
        assert isinstance(path, P.CombinatorialPath)
        assert path.length == 0

    def test_reachable(self, lshape_family):
        keys = sorted(lshape_family)
        path = P.combinatorial_path(
            lshape_family, keys[0], keys[-1], P.family_adjacency(lshape_family)
        )
        assert isinstance(path, P.CombinatorialPath)
        assert path.length >= 1
        assert path.keys[0] == keys[0] and path.keys[-1] == keys[-1]

    def test_perturbed_direction_matches_region_for(self, lshape_family):
        adjacency = P.family_adjacency(lshape_family)
        for key in sorted(lshape_family):
            theta = key + 5e-8
            assert region_for(lshape_family, theta) is lshape_family[key]
            path = P.combinatorial_path(lshape_family, theta, theta, adjacency)
            assert path.keys == (key,)

    def test_unknown_direction_raises(self, lshape_family):
        with pytest.raises(MissingHoroRegion):
            P.combinatorial_path(
                lshape_family, 0.123456, 0.654321, P.family_adjacency(lshape_family)
            )


class TestDrawUntil:
    @staticmethod
    def _draws(outcomes):
        """A draw giving ``outcomes`` in turn (raising the exceptions among
        them) and the list of calls made."""
        calls, it = [], iter(outcomes)

        def draw():
            calls.append(None)
            out = next(it)
            if isinstance(out, Exception):
                raise out
            return out

        return draw, calls

    def test_stops_at_count(self):
        draw, calls = self._draws([1, None, 2, 3, 4])
        assert P.draw_until(draw, 2, 10, "none") == ([1, 2], 3, {"none": 1})
        assert len(calls) == 3

    def test_stops_at_max_attempts(self):
        draw, calls = self._draws([None, 1, None, 2, 3])
        assert P.draw_until(draw, 5, 3, "none") == ([1], 3, {"none": 2})
        assert len(calls) == 3

    def test_zero_attempts_makes_no_call(self):
        draw, calls = self._draws([1])
        assert P.draw_until(draw, 5, 0, "none") == ([], 0, {})
        assert calls == []

    def test_rejections_by_reason_sorted(self):
        outcomes = [NotAGeodesic("x"), None, MissingHoroRegion("y"), NotAGeodesic("z"), 0.0]
        draw, _ = self._draws(outcomes)
        values, attempts, rejected = P.draw_until(draw, 1, 10, "aNone")
        assert (values, attempts) == ([0.0], 5)
        assert rejected == {"MissingHoroRegion": 1, "NotAGeodesic": 2, "aNone": 1}
        assert list(rejected) == sorted(rejected)

    def test_other_errors_propagate(self):
        draw, calls = self._draws([None, IndexError("empty")])
        with pytest.raises(IndexError):
            P.draw_until(draw, 1, 10, "none")
        assert len(calls) == 2
