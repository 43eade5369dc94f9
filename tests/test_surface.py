"""Tests for glued-polygon surfaces and straight-line geometry on them."""

import cmath
import json
import math
import random
import sys
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatbundle import cli, cylinders
from flatbundle import surface as surface_module
from flatbundle.catalog import load_catalog_surface, parse_surface, surface_names
from flatbundle.errors import (
    ConeAngleInvalid,
    GenusTooSmall,
    GluingMismatch,
    NonPlanarPolygon,
    NotAConnection,
    NotAGeodesic,
)
from flatbundle.surface import (
    TOL_VERTEX,
    Corner,
    canonical_holonomy,
    enumerate_saddle_connections,
    is_local_geodesic,
    junction_gaps,
    load_surface,
    tighten_chain,
)

import oracles
from oracles import connect

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def octagon():
    return load_catalog_surface("octagon")


@pytest.fixture(scope="module")
def lshape():
    return load_catalog_surface("lshape")


@pytest.fixture(scope="module")
def pentagons():
    return load_catalog_surface("double_pentagon")


class TestLoading:
    def test_catalog_names(self):
        assert set(surface_names()) >= {"octagon", "double_pentagon", "lshape"}

    def test_octagon_invariants(self, octagon):
        assert octagon.genus == 2
        assert len(octagon.cone_classes) == 1
        assert octagon.cone_classes[0].angle == pytest.approx(6 * math.pi, abs=1e-9)
        # area of the regular octagon of side 1
        assert octagon.area == pytest.approx(2 * (1 + SQRT2), abs=1e-9)

    def test_lshape_invariants(self, lshape):
        assert lshape.genus == 2
        assert len(lshape.cone_classes) == 1
        assert lshape.cone_classes[0].angle == pytest.approx(6 * math.pi, abs=1e-9)
        assert lshape.area == pytest.approx(3.0, abs=1e-12)

    def test_double_pentagon_invariants(self, pentagons):
        assert pentagons.genus == 2
        assert len(pentagons.cone_classes) == 1
        assert pentagons.cone_classes[0].angle == pytest.approx(6 * math.pi, abs=1e-9)

    def test_angle_excess_matches_genus(self, octagon, lshape, pentagons):
        for s in (octagon, lshape, pentagons):
            excess = sum(c.angle - 2 * math.pi for c in s.cone_classes)
            assert excess == pytest.approx(2 * math.pi * (2 * s.genus - 2), abs=1e-9)

    def test_square_torus_is_rejected(self):
        square = [[0j, 1 + 0j, 1 + 1j, 1j]]
        gl = {(0, 0): (0, 2), (0, 2): (0, 0), (0, 1): (0, 3), (0, 3): (0, 1)}
        with pytest.raises(GenusTooSmall):
            load_surface(square, gl)

    def test_mismatched_gluing_is_rejected(self):
        # nudge one vertex: its two edges stop matching their far partners
        octa = [
            cmath.exp(1j * math.pi * (2 * k + 1) / 8) / (2 * math.sin(math.pi / 8))
            for k in range(8)
        ]
        gl = {(0, k): (0, (k + 4) % 8) for k in range(8)}
        bad = list(octa)
        bad[1] += 0.05
        with pytest.raises(GluingMismatch):
            load_surface([bad], gl)

    @given(
        st.sampled_from(surface_names()),
        st.data(),
        st.floats(1.0, 10.0),
        st.integers(-15, -1),
        st.floats(0.0, 2 * math.pi),
    )
    @settings(max_examples=200, deadline=None)
    def test_perturbed_vertex_loads_or_is_rejected(
        self, name, data, mantissa, exponent, angle
    ):
        # one vertex moved by 1e-15 .. 1: the surface loads, or the polygon
        # or its gluing is rejected with the documented error
        path = resources.files("flatbundle") / "data" / f"{name}.json"
        doc = json.loads(path.read_text())
        poly = data.draw(st.sampled_from(doc["polygons"]))
        k = data.draw(st.integers(0, len(poly) - 1))
        step = mantissa * 10.0**exponent * cmath.exp(1j * angle)
        poly[k] = [poly[k][0] + step.real, poly[k][1] + step.imag]
        try:
            parse_surface(doc, name)
        except (NonPlanarPolygon, GluingMismatch, ConeAngleInvalid):
            pass


class TestTracing:
    def test_horizontal_diagonal(self, octagon):
        # the long horizontal diagonal stays inside the polygon
        sc = connect(octagon, Corner(0, 6), complex(1 + SQRT2, 0.0))
        assert sc.end == Corner(0, 3)
        assert sc.crossings == ()

    def test_along_edge_is_flagged(self, octagon):
        with pytest.raises(NotAConnection, match="along-edge"):
            connect(octagon, Corner(0, 0), complex(1 + SQRT2, 0.0))

    @pytest.mark.parametrize(
        "start, w, reason",
        [
            (Corner(0, 0), complex(1 + SQRT2, 0.0), "along-edge"),
            (Corner(0, 0), complex(-1.0, 0.0), "outside-wedge"),
            (Corner(0, 6), complex(0.5, 0.0), "end-not-cone"),
            (Corner(0, 6), complex(2 * (1 + SQRT2), 0.0), "hits-cone-point"),
        ],
    )
    def test_rejection_names_its_reason(self, octagon, start, w, reason):
        with pytest.raises(NotAConnection, match=reason):
            connect(octagon, start, w)

    def test_single_edge_is_a_connection(self, octagon):
        sc = connect(octagon, Corner(0, 0), 1 + 0j)
        assert sc.length == pytest.approx(1.0, abs=1e-12)
        assert sc.crossings == ()

    def test_not_a_connection(self, octagon):
        with pytest.raises(NotAConnection):
            connect(octagon, Corner(0, 0), complex(0.5, 0.0))

    def test_reverse_round_trip(self, octagon):
        sc = connect(octagon, Corner(0, 6), complex(1 + SQRT2, 0.0))
        rev = sc.reverse(octagon)
        back = rev.reverse(octagon)
        assert back.start == sc.start and back.end == sc.end
        assert back.holonomy == pytest.approx(sc.holonomy, abs=0)
        # the reverse really is traceable
        assert connect(octagon, rev.start, rev.holonomy).end == sc.start

    @pytest.mark.parametrize("cutoff", [2.5, 5.0])
    @pytest.mark.parametrize("name", ["lshape", "octagon", "double_pentagon"])
    def test_reverse_is_the_connect_record(self, name, cutoff):
        # one record form: a reverse is bit-equal to what connect traces
        # from its start (an edge's reverse leaves along the glued copy of
        # the edge), and a single connection is its own geodesic in either
        # orientation
        s = load_catalog_surface(name)
        for x in enumerate_saddle_connections(s, cutoff):
            r = x.reverse(s)
            assert r == connect(s, r.start, r.holonomy)
            for y in (x, r):
                assert [p.key() for p in tighten_chain(s, [y]).pieces] == [y.key()]


class TestEnumeration:
    def test_octagon_short_spectrum(self, octagon):
        scs = enumerate_saddle_connections(octagon, 1.0)
        assert len(scs) == 4
        dirs = sorted(sc.direction for sc in scs)
        expect = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4]
        assert dirs == pytest.approx(expect, abs=1e-9)
        assert all(sc.length == pytest.approx(1.0, abs=1e-9) for sc in scs)

    @pytest.mark.parametrize(
        "name,cutoff,depth",
        [("octagon", 3.0, 9), ("lshape", 2.5, 9), ("double_pentagon", 2.0, 9)],
    )
    def test_matches_exhaustive_unfolding(self, name, cutoff, depth):
        s = load_catalog_surface(name)
        fast = {sc.key() for sc in enumerate_saddle_connections(s, cutoff)}
        slow = {sc.key() for sc in oracles.brute_saddle_connections(s, cutoff, depth)}
        assert fast == slow

    def test_lengths_sorted_and_bounded(self, octagon):
        scs = enumerate_saddle_connections(octagon, 2.5)
        lengths = [sc.length for sc in scs]
        assert lengths == sorted(lengths)
        assert all(l <= 2.5 + 1e-9 for l in lengths)

    def test_parallel_distinct_connections(self, octagon):
        # two distinct horizontal connections share the holonomy 1 + sqrt(2)
        scs = [
            sc
            for sc in enumerate_saddle_connections(octagon, 2.5)
            if abs(sc.direction) < 1e-9 and sc.length > 2.0
        ]
        assert len(scs) == 2
        assert scs[0].key() != scs[1].key()
        assert scs[0].holonomy == pytest.approx(scs[1].holonomy, abs=1e-9)

    @pytest.mark.parametrize("name", ["lshape", "octagon", "double_pentagon"])
    def test_records_are_the_traced_records(self, name):
        # every record the unfolding builds is bit-equal to the reference
        # trace of its segment, and the enumeration at 15 restricted to a
        # smaller cutoff is the enumeration at that cutoff, so this holds
        # for every record at 2.5, 5 and 10 too
        s = load_catalog_surface(name)
        full = enumerate_saddle_connections(s, 15.0)
        for sc in full:
            assert sc == connect(s, sc.start, sc.holonomy)
        for cutoff in (1.0, 1.5, 2.0, 2.5, 5.0, 10.0):
            kept = tuple(sc for sc in full if abs(sc.holonomy) <= cutoff + TOL_VERTEX)
            assert enumerate_saddle_connections(s, cutoff) == kept

    def test_canonical_direction(self, octagon):
        for sc in enumerate_saddle_connections(octagon, 2.5):
            assert canonical_holonomy(sc.holonomy)
            assert 0.0 <= sc.direction < math.pi


class TestGeodesics:
    def test_junction_gaps_sum_to_cone_angle(self, octagon):
        sc = connect(octagon, Corner(0, 0), 1 + 0j)
        gaps = junction_gaps(octagon, sc, sc.reverse(octagon).reverse(octagon))
        cone = octagon.cone_classes[0].angle
        assert sum(gaps) == pytest.approx(cone, abs=1e-9)

    def test_straight_through_is_geodesic(self, octagon):
        # a connection followed by its own continuation leaves angle >= pi on
        # both sides only if the turn is flat; its reverse concatenation is not
        sc = connect(octagon, Corner(0, 0), 1 + 0j)
        assert not is_local_geodesic(octagon, (sc, sc.reverse(octagon)))

    def test_tighten_two_edges(self, octagon):
        a = connect(octagon, Corner(0, 0), 1 + 0j)
        nxt = Corner(0, a.end.vertex)
        b = connect(octagon, nxt, octagon.edge_vec(0, nxt.vertex))
        if is_local_geodesic(octagon, (a, b)):
            geo = tighten_chain(octagon, [a, b])
            assert geo.length == pytest.approx(a.length + b.length, rel=1e-9)
        else:
            geo = tighten_chain(octagon, [a, b])
            assert geo.length < a.length + b.length - 1e-9

    def test_tightened_chains_are_locally_geodesic(self, octagon):
        scs = enumerate_saddle_connections(octagon, 2.0)
        checked = 0
        for a in scs[:6]:
            for b in scs:
                if b.start != a.end or abs(b.holonomy + a.holonomy) < 1e-9:
                    continue
                geo = tighten_chain(octagon, [a, b])
                assert geo.length <= a.length + b.length + 1e-9
                assert is_local_geodesic(octagon, geo.pieces)
                assert geo.length == pytest.approx(
                    sum(p.length for p in geo.pieces), abs=1e-9
                )
                checked += 1
                if checked >= 8:
                    break
            if checked >= 8:
                break
        assert checked > 0

    def test_geodesic_between_cone_points(self, lshape):
        # in the L table the two short slit sides meet at the cone point
        scs = enumerate_saddle_connections(lshape, 1.0)
        assert scs
        sc = scs[0]
        geo = tighten_chain(lshape, [sc])
        assert geo.length <= sc.length + 1e-9

    def test_mismatched_crossings_raise(self, lshape):
        sc = next(
            sc for sc in enumerate_saddle_connections(lshape, 3.0) if sc.crossings
        )
        poly, e = sc.crossings[0]
        bad = sc._replace(crossings=((1 - poly, e),) + sc.crossings[1:])
        with pytest.raises(NotAConnection):
            tighten_chain(lshape, [bad])


def _connections(surface):
    """Saddle connections up to length 3 in both orientations."""
    scs = enumerate_saddle_connections(surface, 3.0)
    return list(scs) + [sc.reverse(surface) for sc in scs]


def _random_chains(surface, n, seed=7):
    """``n`` random chains of 2 or 3 connections joined at their cone points."""
    pool = _connections(surface)
    by_cone = {}
    for sc in pool:
        by_cone.setdefault(surface.corner_class[sc.start], []).append(sc)
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        size = rng.choice([2, 3])
        chain = [rng.choice(pool)]
        for _ in range(size - 1):
            chain.append(rng.choice(by_cone[surface.corner_class[chain[-1].end]]))
        out.append(chain)
    return out


def _chain(surface, spec):
    """The chain of connections given as (start corner, holonomy) pairs."""
    pool = _connections(surface)
    return [
        next(
            sc
            for sc in pool
            if sc.start == Corner(*start) and abs(sc.holonomy - w) < 1e-9
        )
        for start, w in spec
    ]


def _same_pieces(a, b):
    return len(a) == len(b) and all(
        p.start == q.start and abs(p.holonomy - q.holonomy) < 1e-9
        for p, q in zip(a, b)
    )


def _assert_certified(surface, chain, geo):
    """Development, length, angle and record certificates of a tightened
    chain: each piece read off the sleeve is bit-equal to its trace."""
    dev = sum((sc.holonomy for sc in chain), 0j)
    assert geo.length <= sum(sc.length for sc in chain) + 1e-9
    assert is_local_geodesic(surface, geo.pieces)
    assert all(p == connect(surface, p.start, p.holonomy) for p in geo.pieces)
    if not geo.pieces:
        # a chain that develops to a closed loop tightens to the empty chain
        assert abs(dev) < 1e-9
        return
    assert abs(geo.development - dev) < 1e-9
    ends = chain[0].start, chain[-1].end
    assert oracles.crossing_class(surface, geo.pieces, *ends) == (
        oracles.crossing_class(surface, chain, *ends)
    )


#: chains on which corridor shortening with an all-pairs visibility search
#: stalled ("local shortening did not converge"): the first is the known
#: lshape case, the rest come from ``_random_chains(surface, 300)``
STALLED_CHAINS = [
    ("lshape", [((0, 5), 1 - 1j), ((0, 4), -1 - 1j), ((0, 3), -1 - 2j)]),
    ("lshape", [((0, 1), 1j), ((1, 0), 2 + 1j), ((1, 0), 1 + 0j)]),
    ("lshape", [((0, 4), -1 - 1j), ((1, 2), -1 - 2j)]),
    ("lshape", [((0, 1), -1 + 1j), ((0, 1), 1 + 2j), ((1, 0), 1 + 1j)]),
    ("lshape", [((1, 2), -1 + 0j), ((0, 1), 2 + 1j), ((0, 1), 2 + 1j)]),
    ("lshape", [((1, 2), -1 + 0j), ((1, 1), -1 + 2j), ((0, 1), 1 + 1j)]),
    (
        "octagon",
        [
            ((0, 4), 0.7071067811865475 - 1.7071067811865475j),
            ((0, 4), 1.4142135623730954 - 2.414213562373095j),
        ],
    ),
    (
        "octagon",
        [
            ((0, 5), 2.7071067811865475 - 0.7071067811865475j),
            ((0, 1), 0.7071067811865475 + 0.7071067811865475j),
            ((0, 6), 1.7071067811865477 + 0.7071067811865475j),
        ],
    ),
    (
        "double_pentagon",
        [
            ((0, 3), 1.3090169943749475 - 2.1266270208801j),
            ((0, 4), 1.618033988749895 - 1.9021130325903075j),
        ],
    ),
    (
        "double_pentagon",
        [
            ((0, 4), 1.618033988749895 - 2.220446049250313e-16j),
            ((0, 4), 2.4270509831248424 + 0.5877852522924728j),
        ],
    ),
    (
        "double_pentagon",
        [
            ((1, 2), 0.8090169943749473 - 0.5877852522924732j),
            ((1, 1), 1.3090169943749475 - 0.9510565162951538j),
            ((1, 2), 2.4270509831248424 - 0.5877852522924735j),
        ],
    ),
]


#: chains whose first funnel path turns below pi outside its sleeve, so
#: tighten_chain reroutes it (307 of 457 327 random chains of 2-6
#: connections up to length 3 on lshape, 248 of 404 238 on octagon); each
#: takes one reroute and ends in three pieces
REROUTED_CHAINS = [
    ("lshape", [((1, 3), 2 - 1j), ((0, 0), 2 + 1j), ((0, 3), -2 - 1j), ((0, 4), -1 - 2j)]),
    (
        "octagon",
        [
            ((0, 5), -1.4142135623730951 - 2.414213562373095j),
            ((0, 2), -1.7071067811865475 + 1.7071067811865475j),
            ((0, 5), 1.7071067811865475 - 1.7071067811865475j),
            ((0, 6), 0.7071067811865472 - 2.7071067811865475j),
            ((0, 2), -1.7071067811865475 + 1.7071067811865475j),
        ],
    ),
]


def _count_run_calls(monkeypatch, tmp_path, name, group, fns):
    """Calls of each ``surface`` function in ``fns`` during a seed-1 run at 2.5.

    The counter is bound in every ``flatbundle`` module that imported the
    function by name, so calls from other modules are counted too.
    """
    counts = dict.fromkeys(fns, 0)
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "flatbundle"]
    for fn in fns:
        inner = getattr(surface_module, fn)

        def counted(*args, _fn=fn, _inner=inner):
            counts[_fn] += 1
            return _inner(*args)

        for mod in modules:
            if getattr(mod, fn, None) is inner:
                monkeypatch.setattr(mod, fn, counted)
    cli.run_experiment(cli.ExperimentConfig(
        surface=name, group=group, max_length=2.5, seed=1, out=str(tmp_path)
    ))
    return counts


class TestTightenChain:
    @pytest.mark.parametrize("name,spec", STALLED_CHAINS)
    def test_stalled_chains_converge(self, name, spec):
        surface = load_catalog_surface(name)
        chain = _chain(surface, spec)
        _assert_certified(surface, chain, tighten_chain(surface, chain))

    @pytest.mark.parametrize("name,spec", REROUTED_CHAINS)
    def test_rerouted_chains_are_certified(self, monkeypatch, name, spec):
        surface = load_catalog_surface(name)
        chain = _chain(surface, spec)
        reroutes = []
        reroute = surface_module._reroute

        def counted(*args):
            reroutes.append(args)
            return reroute(*args)

        monkeypatch.setattr(surface_module, "_reroute", counted)
        geo = tighten_chain(surface, chain)
        assert len(reroutes) == 1 and len(geo.pieces) == 3
        _assert_certified(surface, chain, geo)

    @pytest.mark.parametrize("name", ["octagon", "lshape", "double_pentagon"])
    def test_random_chains_are_certified(self, name):
        surface = load_catalog_surface(name)
        for chain in _random_chains(surface, 300):
            geo = tighten_chain(surface, chain)
            _assert_certified(surface, chain, geo)
            if geo.pieces and is_local_geodesic(surface, tuple(chain)):
                # the geodesic of a homotopy class is unique, so a locally
                # geodesic chain is its own
                assert [p.holonomy for p in geo.pieces] == pytest.approx(
                    [sc.holonomy for sc in chain], abs=1e-9
                )

    def test_locally_geodesic_chain_is_its_own_geodesic(self, lshape):
        # develops to 1+1j like the single connection from (0, 0), but in
        # another homotopy class; a search that took any lift at the right
        # planar position for the end point returned that connection
        chain = _chain(lshape, [((0, 0), 2 + 1j), ((1, 1), -2 + 1j), ((0, 4), 1 - 1j)])
        assert is_local_geodesic(lshape, tuple(chain))
        assert _same_pieces(tighten_chain(lshape, chain).pieces, chain)

    @pytest.mark.parametrize("name", ["lshape", "octagon", "double_pentagon"])
    def test_locally_geodesic_pair_is_returned_as_it_stands(self, name):
        # every locally geodesic 2-chain of enumerated connections (each
        # surface has one cone point, so every pair joins) comes back as the
        # caller's own records, and the funnel finds the same geodesic
        surface = load_catalog_surface(name)
        scs = enumerate_saddle_connections(surface, 2.5)
        pool = list(scs) + [sc.reverse(surface) for sc in scs]
        checked = 0
        for a in pool:
            for b in pool:
                chain = [a, b]
                if abs(a.holonomy + b.holonomy) < 1e-9:
                    continue
                if not is_local_geodesic(surface, chain):
                    continue
                geo = tighten_chain(surface, chain)
                assert geo.pieces == (a, b)
                ref = oracles.tighten_chain_by_funnel(surface, chain)
                assert [(p.start, p.end, p.crossings) for p in ref.pieces] == [
                    (p.start, p.end, p.crossings) for p in chain
                ]
                assert all(
                    abs(p.holonomy - q.holonomy) < 1e-9
                    for p, q in zip(ref.pieces, chain)
                )
                checked += 1
        assert checked > 1000

    def test_locally_geodesic_pair_with_bad_crossing_raises(self, lshape):
        # the shortcut comes after the sleeve, which checks the crossings
        scs = enumerate_saddle_connections(lshape, 2.5)
        a, b = next(
            (a, b)
            for a in scs
            for b in scs
            if b.crossings
            and abs(a.holonomy + b.holonomy) > 1e-9
            and is_local_geodesic(lshape, [a, b])
        )
        poly, e = b.crossings[0]
        bad = b._replace(crossings=((1 - poly, e),) + b.crossings[1:])
        assert is_local_geodesic(lshape, [a, bad])
        with pytest.raises(NotAConnection):
            tighten_chain(lshape, [a, bad])

    @pytest.mark.parametrize(
        "name, group, funnels",
        [("lshape", "lshape_lattice", 217), ("octagon", "octagon_cusped", 194)],
    )
    def test_funnel_runs_only_on_bent_chains(self, monkeypatch, tmp_path, name, group, funnels):
        # a seed-1 run at 2.5 funnels 340 (lshape) and 313 (octagon) times
        # when locally geodesic chains go through the funnel too; pieces are
        # read off the sleeve, so tighten_chain marches none (see the
        # separatrix test)
        counts = _count_run_calls(monkeypatch, tmp_path, name, group, ("_funnel",))
        assert counts["_funnel"] <= funnels

    @pytest.mark.parametrize(
        "name, group, exits", [("lshape", "lshape_lattice", 29), ("octagon", "octagon_cusped", 4)]
    )
    def test_only_separatrices_are_marched(self, monkeypatch, tmp_path, name, group, exits):
        # the enumeration and tighten_chain build each record from the route
        # that found it, so only a separatrix, whose end is not known, is
        # marched: a seed-1 run at 2.5 made 337 (lshape) and 197 (octagon)
        # _find_exit calls when both traced their segments again
        inside, calls = [], []
        separatrices, find_exit = cylinders._separatrices, surface_module._find_exit

        def watched(*args):
            inside.append(True)
            try:
                return separatrices(*args)
            finally:
                inside.pop()

        def counted(*args):
            calls.append(bool(inside))
            return find_exit(*args)

        monkeypatch.setattr(cylinders, "_separatrices", watched)
        monkeypatch.setattr(surface_module, "_find_exit", counted)
        cli.run_experiment(cli.ExperimentConfig(
            surface=name, group=group, max_length=2.5, seed=1, out=str(tmp_path)
        ))
        assert 0 < len(calls) <= exits and all(calls)

    @pytest.mark.parametrize(
        "name, group, bends, gaps",
        [("lshape", "lshape_lattice", 459, 671), ("octagon", "octagon_cusped", 366, 538)],
    )
    def test_sleeve_reports_the_bend(self, monkeypatch, tmp_path, name, group, bends, gaps):
        # a seed-1 run at 2.5 calls bent_junction 799 (lshape) and 679
        # (octagon) times, and junction_gaps 1011 and 851 times, when
        # tighten_chain measures the junctions its sleeve has just measured
        counts = _count_run_calls(
            monkeypatch, tmp_path, name, group, ("bent_junction", "junction_gaps")
        )
        assert counts["bent_junction"] <= bends
        assert counts["junction_gaps"] <= gaps

    @pytest.mark.parametrize("name", ["octagon", "lshape", "double_pentagon"])
    def test_agrees_with_dijkstra_oracle(self, name):
        surface = load_catalog_surface(name)
        agreed_on_sheet = 0
        for chain in _random_chains(surface, 300):
            try:
                ref, on_sheet = oracles.tighten_chain_dijkstra(surface, chain)
            except NotAGeodesic:
                continue
            geo = tighten_chain(surface, chain)
            if _same_pieces(geo.pieces, ref.pieces):
                agreed_on_sheet += on_sheet
                continue
            # the oracle left the chain's sheets: its answer is another local
            # geodesic with the same development, so by uniqueness of the
            # geodesic in a homotopy class it lies in another class
            assert not on_sheet
            assert is_local_geodesic(surface, ref.pieces)
            assert abs(ref.development - geo.development) < 1e-9
            assert ref.length <= sum(sc.length for sc in chain) + 1e-9
        assert agreed_on_sheet >= 60
