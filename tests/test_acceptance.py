"""Acceptance suite: twelve end-to-end criteria, one pass/fail line each."""

import json
import math
import random

import pytest

import oracles

from flatbundle import cli, slimness
from flatbundle.catalog import (
    load_catalog_surface,
    load_group_preset,
    surface_names,
)
from flatbundle.cylinders import trace_direction
from flatbundle.errors import FlatBundleError, NoClosureFound
from flatbundle.hyperbolic import (
    Geodesic,
    balance_point,
    boundary_from_direction,
    saddle_length_at,
)
from flatbundle.paths import (
    CombinatorialPath,
    FiberPoint,
    build_preferred_path,
    check_structure_lemma,
    collapsed_length,
    combinatorial_path,
    family_adjacency,
    random_fan,
    reverse_pairs,
)
from flatbundle.surface import enumerate_saddle_connections, tighten_chain
from flatbundle.veech import (
    build_group_data,
    build_horoball_family,
    family_balls,
    region_for,
)

PRESETS = (
    ("octagon", "octagon_lattice", 2.5),
    ("octagon", "octagon_cusped", 2.5),
    ("octagon", "octagon_hyperbolic", 2.5),
    ("lshape", "lshape_lattice", 2.5),
    ("double_pentagon", "double_pentagon_lattice", 2.5),
)


def _report(number: int, name: str) -> None:
    print(f"\nACCEPTANCE {number:02d} {name}: PASS", flush=True)


@pytest.fixture(scope="module")
def setups():
    out = {}
    for surface_name, group_name, max_length in PRESETS:
        s = load_catalog_surface(surface_name)
        p = load_group_preset(group_name)
        g = build_group_data(s, p["basis"], p["words"], depth=6)
        saddles = enumerate_saddle_connections(s, max_length)
        out[group_name] = (s, g, saddles, build_horoball_family(g, saddles))
    return out


def test_01_gauss_bonnet():
    for name in surface_names():
        s = load_catalog_surface(name)
        total = sum(cc.angle - 2 * math.pi for cc in s.cone_classes)
        assert abs(total - 2 * math.pi * (2 * s.genus - 2)) < 1e-9, name
    _report(1, "Gauss-Bonnet on all catalog surfaces")


def test_02_enumeration_matches_unfolding_oracle():
    s = load_catalog_surface("octagon")
    fast = {sc.key() for sc in enumerate_saddle_connections(s, 4.0)}
    slow = {sc.key() for sc in oracles.brute_saddle_connections(s, 4.0, 10)}
    assert fast == slow
    _report(2, "octagon enumeration to length 4 equals unfolding oracle")


def test_03_dichotomy_classification(setups):
    for group_name, (s, g, saddles, family) in setups.items():
        unclassified = contradictions = 0
        for sc in saddles:
            try:
                reg = region_for(family, sc.direction)
            except FlatBundleError:
                unclassified += 1
                continue
            if reg.kind == "ball" and reg.witness is None:
                contradictions += 1
            if reg.kind == "point" and reg.witness is not None:
                contradictions += 1
        assert unclassified == 0, group_name
        assert contradictions == 0, group_name
    _report(3, "every saddle direction parabolic-with-witness or outside hull")


def test_04_cylinder_area_conservation(setups):
    decomps = 0
    for group_name, (s, g, saddles, family) in setups.items():
        for key in sorted(family):
            reg = family[key]
            if reg.kind != "ball":
                continue
            result = trace_direction(s, reg.theta, 40.0)
            assert not isinstance(result, NoClosureFound), (group_name, key)
            assert abs(result.area - s.area) < 1e-6, (group_name, key)
            decomps += 1
    assert decomps > 0
    _report(4, f"area conserved in all {decomps} decompositions found")


def _random_triangle_hols(rng):
    while True:
        vx = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        vy = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        area = abs((vx.conjugate() * vy).imag) / 2
        if area > 1e-3:
            return vx, vy, -vx - vy, area


def test_05_balance_point():
    rng = random.Random(5)
    for _ in range(500):
        vx, vy, vz, area = _random_triangle_hols(rng)
        b = balance_point(vx, vy, vz)
        lengths = [saddle_length_at(b, v) for v in (vx, vy, vz)]
        ref = lengths[0]
        for val in lengths[1:]:
            assert abs(val - ref) <= 1e-9 * max(ref, val)
        assert all(val <= 2 * math.sqrt(area) * (1 + 1e-9) for val in lengths)
        ideals = [
            boundary_from_direction(math.atan2(v.imag, v.real) % math.pi)
            for v in (vx, vy, vz)
        ]
        for i, j in ((0, 1), (1, 2), (0, 2)):
            d = Geodesic(ideals[i], ideals[j]).distance_to(b)
            assert abs(d - math.log(math.sqrt(3))) < 1e-9
    _report(5, "balance point equalizes side lengths at the incenter")


def test_06_decay_inequality():
    rng = random.Random(6)
    violations = 0
    for _ in range(200):
        vx, vy, _vz, area = _random_triangle_hols(rng)
        xi_x = boundary_from_direction(math.atan2(vx.imag, vx.real) % math.pi)
        xi_y = boundary_from_direction(math.atan2(vy.imag, vy.real) % math.pi)
        if abs(xi_x - xi_y) < 1e-9:
            continue
        g = Geodesic(xi_x, xi_y)
        for L in (1.0, 2.0, 4.0, 8.0):
            u0 = rng.uniform(-3.0, 3.0)
            n = 64
            # L is measured in the Teichmueller metric, which is half the
            # curvature -1 disk metric: a length-L segment spans 2L here
            best = min(
                min(
                    saddle_length_at(g.point(u0 + 2 * L * i / n), vx),
                    saddle_length_at(g.point(u0 + 2 * L * i / n), vy),
                )
                for i in range(n + 1)
            )
            if best > 2 * math.sqrt(3 * area) * math.exp(-L / 2) + 1e-12:
                violations += 1
    assert violations == 0
    _report(6, "min side length obeys 2*sqrt(3A)*exp(-L/2) on all segments")


def test_07_structure_lemma_sweep():
    targets = (("octagon", 600, 3.5), ("lshape", 250, 3.0), ("double_pentagon", 150, 3.5))
    rng = random.Random(7)
    built = failures = 0
    for name, count, cutoff in targets:
        s = load_catalog_surface(name)
        pairs = reverse_pairs(s, enumerate_saddle_connections(s, cutoff))
        got = 0
        while got < count:
            fan = random_fan(s, pairs, rng)
            if fan is None:
                continue
            got += 1
            built += 1
            if not check_structure_lemma(fan).ok:
                failures += 1
    assert built == 1000
    assert failures == 0
    _report(7, "1000 random fans all in cyclic order")


def test_08_lipschitz_collapse(setups):
    s, g, saddles, family = setups["lshape_lattice"]
    rng = random.Random(8)
    done = violations = 0
    while done < 1000:
        a, b = rng.choice(saddles), rng.choice(saddles)
        x = FiberPoint(0j, a.start)
        y = FiberPoint(
            complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)), b.end
        )
        try:
            path = build_preferred_path(x, y, family, tighten_chain(s, [a, b]))
            collapsed = collapsed_length(path, family)
        except FlatBundleError:
            continue
        done += 1
        if collapsed > path.d_length + 1e-12:
            violations += 1
    assert violations == 0
    _report(8, "collapsed length <= d-length on 1000 preferred paths")


def test_09_slimness_stability(setups):
    # non-lattice subgroup preset: parabolic-plus-hyperbolic on the octagon
    s, g, saddles, family = setups["octagon_cusped"]
    r1 = slimness.slimness_sweep(s, family, saddles, count=200, seed=11, step=0.05)
    assert r1.samples == 200
    assert math.isfinite(r1.delta_max)
    full, second = slimness.stability_split(r1)
    assert second <= full + 1e-12
    r2 = slimness.slimness_sweep(s, family, saddles, count=200, seed=11, step=0.025)
    assert abs(r1.delta_max - r2.delta_max) < 0.05
    _report(9, f"slimness stable over 200 triangles (delta_max {r1.delta_max:.3f})")


def test_10_convex_cocompact(setups):
    s, g, saddles, family = setups["octagon_hyperbolic"]
    assert all(reg.kind == "point" for reg in family.values())
    assert family_balls(family) == []
    rep = slimness.slimness_sweep(s, family, saddles, count=50, seed=12)
    assert rep.samples == 50
    assert math.isfinite(rep.delta_max)
    full, second = slimness.stability_split(rep)
    assert second <= full + 1e-12
    _report(10, "purely hyperbolic preset: no horoballs, finite stable delta")


def _max_ratio(family, seed: int, pairs: int) -> float:
    rng = random.Random(seed)
    keys, adjacency = sorted(family), family_adjacency(family)
    ratios = []
    while len(ratios) < pairs:
        k1, k2 = rng.choice(keys), rng.choice(keys)
        if k1 == k2:
            continue
        result = combinatorial_path(family, k1, k2, adjacency)
        if not isinstance(result, CombinatorialPath):
            continue
        dist = max(cli._surrogate_distance(family, k1, k2), 0.1)
        ratios.append(result.length / dist)
    return max(ratios)


def test_11_combinatorial_ratio(setups):
    _s, _g, _saddles, family = setups["lshape_lattice"]
    r1 = _max_ratio(family, seed=21, pairs=100)
    r2 = _max_ratio(family, seed=22, pairs=100)
    assert math.isfinite(r1) and math.isfinite(r2)
    assert abs(r1 - r2) <= 0.2 * max(r1, r2)
    _report(11, f"combinatorial ratio bounded and seed-stable ({r1:.2f}, {r2:.2f})")


def test_12_determinism(tmp_path):
    cfg = dict(
        surface="octagon",
        group="octagon_lattice",
        max_length=2.5,
        seed=1,
        out=str(tmp_path / "run"),
    )
    report1 = cli.run_experiment(cli.ExperimentConfig(**cfg))
    blobs = {
        p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()
    }
    report2 = cli.run_experiment(cli.ExperimentConfig(**cfg))
    assert report1 == report2
    for p in (tmp_path / "run").iterdir():
        assert p.read_bytes() == blobs[p.name], p.name
    assert json.loads(blobs["report.json"])["passed"]
    _report(12, "identical config reproduces byte-identical reports")
