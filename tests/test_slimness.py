"""Tests for slimness measurements: sample distances, triangle slimness
and slimness sweeps."""

import math
import random

import numpy as np
import pytest

from flatbundle.catalog import load_catalog_surface, load_group_preset
from flatbundle.errors import FlatBundleError
from flatbundle.paths import FiberPoint, build_preferred_path
from flatbundle.surface import enumerate_saddle_connections
from flatbundle.veech import (
    build_group_data,
    build_horoball_family,
    family_balls,
    region_for,
)
from flatbundle import slimness as S

import oracles


@pytest.fixture(scope="module")
def lshape_setup():
    s = load_catalog_surface("lshape")
    p = load_group_preset("lshape_lattice")
    g = build_group_data(s, p["basis"], p["words"], depth=6)
    saddles = enumerate_saddle_connections(s, 3.0)
    return s, build_horoball_family(g, saddles), saddles


class TestSampleDistances:
    def test_matrix_symmetry_and_self_zero(self, lshape_setup):
        s, fam, saddles = lshape_setup
        sc = saddles[0]
        reg = region_for(fam, sc.direction)
        x = FiberPoint(reg.anchor, sc.start)
        y = FiberPoint(0.2 + 0.1j, sc.end)
        path = build_preferred_path(s, x, y, fam, [sc])
        samples = S.sample_path(path, {}, family_balls(fam))
        d = S.sample_distance_matrix(samples, samples)
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)
        assert (d >= -1e-12).all()


class TestTriangleSlimness:
    def test_degenerate_vertex(self, lshape_setup):
        s, fam, saddles = lshape_setup
        sc = saddles[0]
        reg = region_for(fam, sc.direction)
        x = FiberPoint(reg.anchor, sc.start)
        y = FiberPoint(reg.anchor, sc.end)
        # z = x: the side (x,y) coincides with the union of the others
        delta = S.triangle_slimness(
            s, fam, x, y, x, ([sc], [sc.reverse(s)], [])
        )
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
                chains = ([a], [b], list(third.pieces))
                d1 = S.triangle_slimness(s, fam, x, y, z, chains, step=0.05)
                d2 = S.triangle_slimness(s, fam, x, y, z, chains, step=0.025)
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
        # one matrix per unordered pair of sides, read by rows and by
        # columns, gives exactly the six-matrix answer
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
            chains = ([a], [b], list(third.pieces))
            try:
                ref = oracles.triangle_slimness(s, fam, x, y, z, chains, step=0.05)
            except FlatBundleError:
                continue
            assert S.triangle_slimness(s, fam, x, y, z, chains) == ref
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
