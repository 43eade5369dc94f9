"""Tests for periodic-direction classification, cylinder decompositions
and their weighted dual graphs."""

import math

import pytest

from flatbundle.catalog import load_catalog_surface
from flatbundle.cylinders import NoClosureFound, trace_direction

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
