"""Tests for periodic-direction classification, cylinder decompositions
and their weighted dual graphs."""

import cmath
import functools
import math

import pytest

import oracles
from flatbundle.catalog import load_catalog_surface
from flatbundle.cylinders import NoClosureFound, trace_direction
from flatbundle.surface import (
    TOL_VERTEX,
    enumerate_saddle_connections,
    fold_direction,
    load_surface,
)

SQRT2 = math.sqrt(2.0)


def moduli(decomp):
    return sorted(
        (round(c.circumference, 9), round(c.width, 9)) for c in decomp.cylinders
    )


class TestDecompositions:
    def test_octagon_horizontal(self):
        # [DERIVED] by hand from the octagon with unit sides: a central
        # cylinder of circumference 1+sqrt2 and width 1 between the two
        # horizontal diagonals, and an outer cylinder of circumference
        # 2+sqrt2 and width sqrt2/2 through the slanted sides.
        s = load_catalog_surface("octagon")
        d = trace_direction(s, 0.0, 60.0)
        assert moduli(d) == [
            (round(1 + SQRT2, 9), round(1.0, 9)),
            (round(2 + SQRT2, 9), round(SQRT2 / 2, 9)),
        ]
        assert abs(d.area - s.area) < 1e-6

    @pytest.mark.parametrize("theta", [math.pi / 4, math.pi / 2, 3 * math.pi / 4])
    def test_octagon_symmetry_directions(self, theta):
        # the octagon's rotation by pi/4 maps the horizontal decomposition to
        # these, so the moduli multisets must agree
        s = load_catalog_surface("octagon")
        d0 = trace_direction(s, 0.0, 60.0)
        d = trace_direction(s, theta, 60.0)
        assert moduli(d) == moduli(d0)

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2])
    def test_lshape_axes(self, theta):
        # [DERIVED] the L of three unit squares splits along either axis into
        # a 2x1 cylinder through the long arm and a 1x1 cylinder
        s = load_catalog_surface("lshape")
        d = trace_direction(s, theta, 60.0)
        assert moduli(d) == [(1.0, 1.0), (2.0, 1.0)]
        assert abs(d.area - 3.0) < 1e-6

    def test_double_pentagon_vertical(self):
        s = load_catalog_surface("double_pentagon")
        d = trace_direction(s, math.pi / 2, 80.0)
        assert len(d.cylinders) == 2
        assert abs(d.area - s.area) < 1e-6

    @pytest.mark.parametrize(
        "name,theta",
        [
            ("octagon", 0.0),
            ("octagon", math.pi / 4),
            ("lshape", 0.0),
            ("lshape", math.atan2(1, 1)),
            ("double_pentagon", math.pi / 2),
        ],
    )
    def test_area_conservation(self, name, theta):
        s = load_catalog_surface(name)
        d = trace_direction(s, theta, 80.0)
        assert abs(d.area - s.area) < 1e-6
        for c in d.cylinders:
            assert c.circumference > 0 and c.width > 0
            assert len(c.boundary_low) + len(c.boundary_high) == len(c.sides)

    def test_irrational_direction_is_unresolved(self):
        s = load_catalog_surface("octagon")
        out = trace_direction(s, 0.5, 40.0)
        assert isinstance(out, NoClosureFound)

    def test_direction_normalized_mod_pi(self):
        s = load_catalog_surface("lshape")
        d1 = trace_direction(s, 0.0, 60.0)
        d2 = trace_direction(s, math.pi, 60.0)
        assert moduli(d1) == moduli(d2)

    def test_single_spine_on_one_cone_point_surfaces(self):
        # each catalog surface has a single cone class, so every saddle
        # connection shares its endpoints and there is exactly one spine
        for name in ("octagon", "lshape", "double_pentagon"):
            s = load_catalog_surface(name)
            d = trace_direction(s, 0.0 if name != "double_pentagon" else math.pi / 2, 80.0)
            assert len(d.spines) == 1
            assert tuple(sorted(d.spines[0])) == tuple(range(len(d.saddles)))


class TestDualGraph:
    # the dual graph has one vertex per spine and one edge per cylinder,
    # weighted by the cylinder's width

    def test_lshape_graph_two_loops(self):
        s = load_catalog_surface("lshape")
        d = trace_direction(s, 0.0, 60.0)
        assert len(d.spines) == 1
        # each cylinder's edge joins the spine to itself: a loop
        assert all(c.boundary_low and c.boundary_high for c in d.cylinders)
        assert sorted(round(c.width, 9) for c in d.cylinders) == [1.0, 1.0]

    def test_octagon_graph_widths(self):
        s = load_catalog_surface("octagon")
        d = trace_direction(s, 0.0, 60.0)
        assert len(d.spines) == 1
        assert sorted(round(c.width, 9) for c in d.cylinders) == [
            round(SQRT2 / 2, 9),
            round(1.0, 9),
        ]


# every direction of a saddle connection of length <= CUTOFF on the catalog
# surfaces: 16 on lshape, 16 on octagon and 20 on double_pentagon
CUTOFF = 4.0
SURFACES = ("lshape", "octagon", "double_pentagon")


@functools.lru_cache(maxsize=None)
def _directions(name):
    """(surface, {direction: saddle connections of length <= CUTOFF in it})."""
    s = load_catalog_surface(name)
    by_direction = {}
    for sc in enumerate_saddle_connections(s, CUTOFF):
        by_direction.setdefault(round(sc.direction, 9), []).append(sc)
    return s, {scs[0].direction: scs for scs in by_direction.values()}


def test_direction_count():
    assert sum(len(_directions(name)[1]) for name in SURFACES) == 52


class TestCertificates:
    @pytest.mark.parametrize("name", SURFACES)
    def test_saddles_match_enumeration(self, name):
        # the forward-only trace finds every saddle connection the
        # enumeration finds in its direction, and no other as short
        s, directions = _directions(name)
        for theta, scs in directions.items():
            d = trace_direction(s, theta, 80.0)
            short = {sc.key() for sc in d.saddles if sc.length <= CUTOFF + TOL_VERTEX}
            assert short == {sc.key() for sc in scs}, theta

    @pytest.mark.parametrize("name", SURFACES)
    def test_boundary_circles_have_the_circumference(self, name):
        # t runs along the left normal, so the cylinder lies left of the
        # saddles on its t = 0 circle and right of those on its t = width one
        s, directions = _directions(name)
        for theta in directions:
            d = trace_direction(s, theta, 80.0)
            for c in d.cylinders:
                for circle, side in ((c.boundary_low, +1), (c.boundary_high, -1)):
                    total = sum(d.saddles[k].length for k, _side in circle)
                    assert total == pytest.approx(c.circumference, abs=1e-9), theta
                    assert {sgn for _k, sgn in circle} == {side}, theta

    @pytest.mark.parametrize("name", SURFACES)
    def test_sides_partition_the_saddle_sides(self, name):
        # each side of each saddle bounds exactly one cylinder
        s, directions = _directions(name)
        for theta in directions:
            d = trace_direction(s, theta, 80.0)
            sides = sorted(side for c in d.cylinders for side in c.sides)
            assert sides == [(k, sgn) for k in range(len(d.saddles)) for sgn in (-1, 1)]


def _regular(n):
    """The regular n-gon (n even) with opposite sides glued."""
    verts = [cmath.exp(2j * math.pi * k / n) for k in range(n)]
    gluings = {(0, e): (0, (e + n // 2) % n) for e in range(n)}
    return load_surface([verts], gluings, name=f"{n}-gon")


def _sheared(name):
    """A catalog surface under the shear (x, y) -> (x + y / 2, y)."""
    s = load_catalog_surface(name)
    polygons = [[v + v.imag / 2 for v in poly] for poly in s.polygons]
    return load_surface(polygons, s.gluings, name=f"sheared {name}")


BUILDERS = {
    "10-gon": lambda: _regular(10),  # two cone points
    "12-gon": lambda: _regular(12),
    "14-gon": lambda: _regular(14),
    **{f"sheared {name}": functools.partial(_sheared, name) for name in SURFACES},
    **{name: functools.partial(load_catalog_surface, name) for name in SURFACES},
}


def _probe_directions(s):
    """One angle per direction of a saddle connection of length <= 3."""
    return {
        round(sc.direction, 9): sc.direction for sc in enumerate_saddle_connections(s, 3.0)
    }.values()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_strips_match_ray_probes(name):
    # every direction of a saddle connection of length <= 3 (40, 60 and 98
    # on the regular 10-, 12- and 14-gons, 37 on the sheared catalog
    # surfaces): the strip sweep and the ray probes give the same saddles,
    # spines, cylinders and circles, and widths and circumferences within
    # 1e-12
    s = BUILDERS[name]()
    for theta in _probe_directions(s):
        d = trace_direction(s, theta, 80.0)
        ref = oracles.trace_direction_rays(s, theta, 80.0)
        assert [sc.key() for sc in d.saddles] == [sc.key() for sc in ref.saddles]
        assert d.spines == ref.spines
        assert len(d.cylinders) == len(ref.cylinders)
        for c, c_ref in zip(d.cylinders, ref.cylinders):
            assert (c.sides, c.boundary_low, c.boundary_high) == (
                c_ref.sides, c_ref.boundary_low, c_ref.boundary_high
            ), theta
            assert c.width == pytest.approx(c_ref.width, abs=1e-12)
            assert c.circumference == pytest.approx(c_ref.circumference, abs=1e-12)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_only_edge_records_lie_along_edges(name):
    # a marched separatrix meets the end points of any edge it runs along,
    # and those are cone points, where the march stops: over the directions
    # of test_strips_match_ray_probes, a piece of a separatrix, developed by
    # the reference's own march, has both ends on one of its polygon's
    # edges exactly when the record is an edge (start_phi 0), so only an
    # edge record is listed in the partner polygon too
    s = BUILDERS[name]()
    edges = 0
    for theta in _probe_directions(s):
        u = cmath.exp(1j * fold_direction(theta))
        for sc in trace_direction(s, theta, 80.0).saddles:
            along = [
                oracles.along_edges(s, poly, a - t, b - t)
                for poly, t, a, b in oracles.develop(s, sc, u, 80.0)
            ]
            if sc.start_phi == 0.0:
                assert along == [[sc.start.vertex]], (theta, sc)
                edges += 1
            else:
                assert not any(along), (theta, sc)
    assert edges > 0


class TestOrder:
    @pytest.mark.parametrize("name", SURFACES)
    def test_order_survives_rounding(self, name):
        # theta + pi and theta +- 1e-14 are the same direction: the same
        # saddles in the same order, the same cylinders in the same order
        # (ties of equal lengths and areas are not broken by rounding, and
        # theta just below pi reads as 0)
        s, directions = _directions(name)
        for theta in directions:
            d0 = trace_direction(s, theta, 80.0)
            keys = [sc.key() for sc in d0.saddles]
            sides = [c.sides for c in d0.cylinders]
            for other in (
                theta + math.pi,
                theta + 1e-14,
                theta - 1e-14,
                theta + math.pi + 1e-14,
                theta + math.pi - 1e-14,
            ):
                d = trace_direction(s, other, 80.0)
                assert [sc.key() for sc in d.saddles] == keys, (theta, other)
                assert [c.sides for c in d.cylinders] == sides, (theta, other)
