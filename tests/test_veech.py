"""Tests for affine-symmetry verification, limit sets, hulls, parabolic
detection, and the horoball/horopoint family."""

import cmath
import math
import random
import types

import pytest

from flatbundle.catalog import load_catalog_surface, load_group_preset, parse_group
from flatbundle.errors import (
    CuspAtHullVertex,
    CutoffTooLarge,
    DirectionInsideHullNotParabolic,
    ElementaryGroup,
    NonInvertible,
    NotAnAutomorphism,
)
from flatbundle.hyperbolic import (
    ConvexRegion,
    Horoball,
    Mobius,
    boundary_from_direction,
    busemann,
    geodesic_max_busemann,
    hyp_distance,
)
from flatbundle import veech
from flatbundle.surface import enumerate_saddle_connections
from flatbundle.veech import (
    build_group_data,
    build_horoball_family,
    build_hull,
    family_balls,
    find_parabolic_fixed_points,
    group_words,
    horoball_separation,
    region_for,
    sample_limit_set,
    verify_affine,
    word_element,
)

import oracles

SQRT2 = math.sqrt(2.0)
SHEAR = ((1.0, 2.0 * (1.0 + SQRT2)), (0.0, 1.0))
ROT8 = (
    (math.cos(math.pi / 4), -math.sin(math.pi / 4)),
    (math.sin(math.pi / 4), math.cos(math.pi / 4)),
)
PRESETS = ["lshape_lattice", "octagon_lattice", "octagon_cusped", "octagon_hyperbolic"]
# the generator matrices each preset stored before it became words over its
# surface's basis: the reference its word products are checked against
STORED_GENERATORS = {
    "lshape_lattice": [((1.0, 2.0), (0.0, 1.0)), ((1.0, 0.0), (2.0, 1.0))],
    "octagon_lattice": [
        (
            (0.7071067811865476, -0.7071067811865476),
            (0.7071067811865476, 0.7071067811865476),
        ),
        ((1.0, 4.82842712474619), (0.0, 1.0)),
    ],
    "octagon_cusped": [
        ((1.0, 4.82842712474619), (0.0, 1.0)),
        (
            (-13.071067811865476, 18.899494936611664),
            (-2.414213562373095, 3.414213562373095),
        ),
    ],
    "octagon_hyperbolic": [
        (
            (125.2253967444162, -182.50966799187808),
            (23.31370849898476, -33.970562748477136),
        ),
        (
            (474.58787847867995, -102.91168824543138),
            (102.91168824543142, -22.31370849898475),
        ),
    ],
}


def group_data(name, depth=6):
    p = load_group_preset(name)
    s = load_catalog_surface(p["surface"])
    return s, build_group_data(
        checked_saddles(p["surface"]), p["basis"], p["words"], depth=depth
    )


def generators(name):
    """A preset's generators as products of its words, without verification."""
    p = load_group_preset(name)
    basis = tuple(Mobius.from_matrix(m) for m in p["basis"])
    return tuple(word_element(basis, w) for w in p["words"])


def checked_saddles(surface_name, cutoff=veech.VERIFY_LENGTH):
    """The enumeration ``verify_affine`` checks against."""
    return enumerate_saddle_connections(load_catalog_surface(surface_name), cutoff)


class TestVerifyAffine:
    def test_identity(self):
        saddles = checked_saddles("octagon")
        (a,) = verify_affine(saddles, [((1.0, 0.0), (0.0, 1.0))])
        assert a == Mobius.identity()
        assert a.classify() == "identity"

    def test_octagon_shear_parabolic(self):
        # the shear amount is twice the sum of the inverse moduli of the two
        # horizontal cylinders: 2(1/(1+sqrt2)·... ) = 2(1+sqrt2)
        saddles = checked_saddles("octagon")
        (a,) = verify_affine(saddles, [SHEAR])
        assert a.classify() == "parabolic"
        assert abs(abs(a.trace) - 2.0) < 1e-9

    def test_octagon_rotation(self):
        saddles = checked_saddles("octagon")
        (a,) = verify_affine(saddles, [ROT8])
        assert a.classify() == "elliptic"

    def test_diagonal_rejected(self):
        saddles = checked_saddles("octagon")
        with pytest.raises(NotAnAutomorphism):
            verify_affine(saddles, [((2.0, 0.0), (0.0, 0.5))])

    def test_bad_determinant(self):
        saddles = checked_saddles("octagon")
        with pytest.raises(NonInvertible):
            verify_affine(saddles, [((2.0, 0.0), (0.0, 1.0))])

    def test_lshape_shears(self):
        saddles = checked_saddles("lshape")
        shears = [((1.0, 2.0), (0.0, 1.0)), ((1.0, 0.0), (2.0, 1.0))]
        for a in verify_affine(saddles, shears):
            assert a.classify() == "parabolic"

    def test_generic_shear_rejected_on_lshape(self):
        saddles = checked_saddles("lshape")
        with pytest.raises(NotAnAutomorphism):
            verify_affine(saddles, [((1.0, 0.5), (0.0, 1.0))])

    def test_nothing_checked_under_cutoff(self):
        # this generator stretches every saddle connection past the cutoff,
        # which is why its preset is a word over the surface's basis
        _s, g = group_data("octagon_hyperbolic")
        saddles = checked_saddles("octagon")
        m = g.generators[0]
        with pytest.raises(NotAnAutomorphism, match="no holonomy image"):
            verify_affine(saddles, [((m.a, m.b), (m.c, m.d))])


class TestVerificationPaths:
    @pytest.mark.parametrize("name", ["octagon", "lshape", "double_pentagon"])
    def test_catalog_basis_verifies(self, name):
        saddles = checked_saddles(name)
        basis = parse_group({"surface": name}, name)["basis"]
        assert len(basis) == 2
        assert verify_affine(saddles, basis) == tuple(Mobius.from_matrix(m) for m in basis)

    def test_one_enumeration_per_basis(self):
        # every basis matrix is checked against the same saddle enumeration,
        # read once
        class Counted(tuple):
            reads = 0

            def __iter__(self):
                Counted.reads += 1
                return super().__iter__()

        p = load_group_preset("lshape_lattice")
        saddles = Counted(checked_saddles(p["surface"]))
        build_group_data(saddles, p["basis"], p["words"])
        assert len(p["basis"]) == 2
        assert Counted.reads == 1

    def test_records_past_cutoff_are_left_out(self):
        # the shear takes this record, which no saddle connection has, under
        # the cutoff; past the cutoff itself, it is not checked
        saddles = checked_saddles("lshape")
        stray = types.SimpleNamespace(holonomy=complex(-3.9, 1.0))
        shear = ((1.0, 2.0), (0.0, 1.0))
        assert verify_affine(saddles + (stray,), [shear]) == verify_affine(saddles, [shear])

    @pytest.mark.parametrize(
        "name, basis",
        [
            ("lshape", [((1.0, 2.0), (0.0, 1.0)), ((1.0, 0.0), (2.0, 1.0))]),
            ("lshape", [((1.0, 0.5), (0.0, 1.0))]),
            ("octagon", [SHEAR, ROT8]),
            ("octagon", [((2.0, 0.0), (0.0, 0.5))]),
            ("octagon", [STORED_GENERATORS["octagon_hyperbolic"][0]]),
            ("double_pentagon", "catalog"),
        ],
    )
    @pytest.mark.parametrize("cutoff", [3.0, 5.0, 10.0])
    def test_longer_enumeration_checks_alike(self, name, basis, cutoff):
        # records past VERIFY_LENGTH are left out: the same maps, or the
        # same error with the same message
        if basis == "catalog":
            basis = parse_group({"surface": name}, name)["basis"]

        def outcome(saddles):
            try:
                return verify_affine(saddles, basis)
            except (NotAnAutomorphism, NonInvertible) as exc:
                return type(exc), str(exc)

        assert outcome(checked_saddles(name, cutoff)) == outcome(checked_saddles(name))

    @pytest.mark.parametrize("name", PRESETS + ["double_pentagon_lattice"])
    def test_generators_are_word_products(self, name):
        _s, g = group_data(name)
        assert g.generators == generators(name)

    @pytest.mark.parametrize("name", PRESETS)
    def test_generators_match_stored_matrices(self, name):
        # up to sign, as a matrix and its negative act alike
        for g, m in zip(generators(name), STORED_GENERATORS[name]):
            stored = [x for row in m for x in row]
            scale = max(abs(x) for x in stored)
            gap = min(
                max(abs(x - sign * y) for x, y in zip((g.a, g.b, g.c, g.d), stored))
                for sign in (1, -1)
            )
            assert gap <= 1e-12 * scale

    @pytest.mark.parametrize(
        "name, direct",
        [
            ("lshape_lattice", True),
            ("octagon_lattice", True),
            ("octagon_cusped", False),
            ("octagon_hyperbolic", False),
        ],
    )
    def test_basis_and_direct_give_equal_data(self, name, direct):
        # a group file with bare generators is its own basis; the group data
        # must not depend on which form the file took
        p = load_group_preset(name)
        saddles = checked_saddles(p["surface"])
        doc = {"surface": p["surface"], "generators": STORED_GENERATORS[name]}
        bare = parse_group(doc, name)
        assert bare["words"] == [[1], [2]]
        if not direct:
            # entries too large for a holonomy check at the cutoff: that is
            # why the preset is a word over the surface's basis
            with pytest.raises(NotAnAutomorphism, match="no holonomy image"):
                build_group_data(saddles, bare["basis"], bare["words"])
            return
        alone = build_group_data(saddles, bare["basis"], bare["words"])
        via_basis = build_group_data(saddles, p["basis"], p["words"])
        assert alone.generators == via_basis.generators
        assert [(g.start, g.end) for g in alone.hull.sides] == [
            (g.start, g.end) for g in via_basis.hull.sides
        ]
        assert alone.parabolic_fixed_points == via_basis.parabolic_fixed_points
        assert alone.orbit_words == via_basis.orbit_words


class TestWordsAndLimitSet:
    def test_reduced_words_counts(self):
        # free group on 2 letters: 4 * 3^(L-1) reduced words of length L
        gens = (Mobius.from_matrix(SHEAR), Mobius.from_matrix(ROT8))
        words = [w for w, _g in group_words(gens, 3)]
        by_len = {}
        for w in words:
            by_len[len(w)] = by_len.get(len(w), 0) + 1
        assert by_len == {1: 4, 2: 12, 3: 36}
        for w in words:
            assert all(w[i + 1] != -w[i] for i in range(len(w) - 1))

    @pytest.mark.parametrize("name", PRESETS)
    def test_group_words_match_word_element(self, name):
        # the same words in the same order as the reference enumeration, and
        # each element bit for bit the letter-by-letter product
        gens = generators(name)
        assert group_words(gens, 6) == [
            (w, word_element(gens, w)) for w in oracles.reduced_words(len(gens), 6)
        ]

    def test_word_budget_checked_before_enumerating(self, monkeypatch):
        # two generators give sum_k 4 * 3^(k-1) reduced words up to length k;
        # the count is refused before the saddle list or the check is read
        monkeypatch.setattr(veech, "verify_affine", None)  # must not be reached
        count = sum(4 * 3 ** (k - 1) for k in range(1, 12))
        assert len(group_words(generators("lshape_lattice"), 4)) == 160
        p = load_group_preset("lshape_lattice")
        with pytest.raises(CutoffTooLarge, match=f"{count} group words"):
            build_group_data(None, p["basis"], p["words"], depth=11)

    def test_group_words_kept_to_orbit_depth(self):
        _s, g = group_data("octagon_cusped", depth=2)
        assert len(g.orbit_words) == 160
        assert g.orbit_words == tuple(group_words(g.generators, veech.ORBIT_DEPTH))

    def test_parabolic_generator_fixed_point_in_sample(self):
        # a parabolic orbit converges to its fixed point like 1/n, so the
        # tail of the sample approaches it as depth grows
        g = Mobius.from_matrix(SHEAR)
        fix = g.parabolic_fixed_point()
        gap = lambda depth: min(
            abs(x - fix) for x in sample_limit_set(group_words((g,), depth))
        )
        assert gap(40) < gap(5)
        assert gap(40) < 0.02

    def test_nonelementary_witness(self):
        _s, g = group_data("octagon_hyperbolic")
        assert len({side.start for side in g.hull.sides}) > 2

    def test_sample_monotone_in_depth(self):
        gens = generators("octagon_hyperbolic")
        small = sample_limit_set(group_words(gens, 3))
        big = sample_limit_set(group_words(gens, 4))
        for x in small:
            assert min(abs(x - y) for y in big) < 1e-8

    def test_sample_deterministic(self):
        gens = generators("octagon_cusped")
        assert sample_limit_set(group_words(gens, 5)) == sample_limit_set(
            group_words(gens, 5)
        )


class TestHull:
    def test_three_points_triangle(self):
        pts = [cmath.exp(1j * t) for t in (0.3, 2.0, 4.0)]
        hull = build_hull(pts)
        assert len(hull.sides) == 3
        assert hull.contains(0j)

    def test_elementary_rejected(self):
        with pytest.raises(ElementaryGroup):
            build_hull([1 + 0j, -1 + 0j])

    def test_lattice_hull_fills_disk_with_depth(self):
        # a lattice's hull is the whole disk; the approximation's maximal
        # distance from grid points to the region must shrink with depth
        gens = generators("octagon_lattice")

        def max_gap(depth):
            hull = build_hull(sample_limit_set(group_words(gens, depth)))
            worst = 0.0
            for k in range(16):
                z = 0.8 * cmath.exp(2j * math.pi * k / 16)
                if not hull.contains(z):
                    worst = max(worst, hyp_distance(z, hull.project(z)))
            return worst

        assert max_gap(6) <= max_gap(3) + 1e-12

    def test_sample_generator_invariance(self):
        # applying a generator to a depth-5 orbit point gives a depth-6 orbit
        # point, so the image directions stay inside the deeper sample
        gens = generators("octagon_hyperbolic")
        small = [g.apply_disk(0j) for _w, g in group_words(gens, 5)]
        big = sample_limit_set(group_words(gens, 6))
        for mob in gens:
            for z in small[:50]:
                img = mob.apply_disk(z)
                if abs(img) < 1e-9:
                    continue
                xi = img / abs(img)
                assert min(abs(xi - x) for x in big) < 1e-7


class TestParabolicScan:
    def test_shear_found(self):
        g = Mobius.from_matrix(SHEAR)
        found = find_parabolic_fixed_points(group_words((g,), 3))
        assert len(found) == 1
        xi, word = found[0]
        assert word == (1,)
        assert abs(xi - boundary_from_direction(0.0)) < 1e-9

    def test_purely_hyperbolic_empty(self):
        gens = generators("octagon_hyperbolic")
        assert find_parabolic_fixed_points(group_words(gens, 4)) == []

    def test_conjugate_found_with_translated_fixed_point(self):
        _s, g = group_data("octagon_lattice", depth=4)
        shear = g.generators[1]
        rot = g.generators[0]
        conj = rot @ shear @ rot.inverse()
        target = rot.apply_boundary(shear.parabolic_fixed_point())
        assert abs(conj.apply_boundary(target) - target) < 1e-9
        found = find_parabolic_fixed_points(group_words(g.generators, 3))
        assert min(abs(x - target) for (x, _w) in found) < 1e-9


@pytest.fixture(scope="module")
def lattice():
    s, g = group_data("octagon_lattice")
    saddles = enumerate_saddle_connections(s, 2.5)
    return s, g, saddles, build_horoball_family(g, saddles)


class TestHoroballFamily:
    def test_lattice_all_balls(self, lattice):
        _s, _g, _saddles, fam = lattice
        assert len(fam) == 8
        assert all(r.kind == "ball" for r in fam.values())

    def test_horizontal_ball_base(self, lattice):
        _s, _g, _saddles, fam = lattice
        r = region_for(fam, 0.0)
        assert abs(r.boundary_point - boundary_from_direction(0.0)) < 1e-9
        assert r.witness is not None

    def test_one_third_condition(self, lattice):
        _s, _g, saddles, fam = lattice
        for r in fam.values():
            if r.kind != "ball":
                continue
            here = r.length_level
            for w in oracles.horocycle_uhp(r.ball, 16):
                other = min(
                    oracles.saddle_length_at_uhp(w, sc.holonomy)
                    for sc in saddles
                    if min(
                        abs(sc.direction - r.theta),
                        math.pi - abs(sc.direction - r.theta),
                    )
                    > 1e-8
                )
                assert here <= other / 3.0 + 1e-6

    @pytest.mark.parametrize("name", ["lshape_lattice", "octagon_lattice"])
    def test_one_third_condition_tight_on_whole_horocycle(self, name):
        # without the hull the length condition alone sets each level, so
        # on the whole horocycle the shortest other saddle is exactly three
        # times the cusp saddle
        s, g = group_data(name)
        g = g._replace(hull=ConvexRegion(()))
        saddles = enumerate_saddle_connections(s, 2.5)
        for r in build_horoball_family(g, saddles).values():
            other = min(
                oracles.horocycle_min_length(r.ball, sc.holonomy)
                for sc in saddles
                if min(
                    abs(sc.direction - r.theta), math.pi - abs(sc.direction - r.theta)
                )
                > 1e-8
            )
            assert other / (3.0 * r.length_level) == pytest.approx(1.0, abs=1e-12)

    def test_horocycle_minimum_formula(self):
        # on the horocycle at level c toward the direction of h, the length
        # of v is at least e^(c/2) |h x v| / |h|, with equality at one point
        rng = random.Random(3)
        for _ in range(10):
            theta = rng.uniform(0.0, math.pi)
            ball = Horoball(boundary_from_direction(theta), rng.uniform(-1.0, 3.0))
            hol = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            h = cmath.exp(1j * theta)
            formula = math.exp(0.5 * ball.level) * abs(
                h.real * hol.imag - h.imag * hol.real
            )
            sampled = min(
                oracles.saddle_length_at_uhp(w, hol)
                for w in oracles.horocycle_uhp(ball, 20001)
            )
            assert formula <= sampled * (1.0 + 1e-12)
            assert sampled == pytest.approx(formula, rel=1e-4)
            assert oracles.horocycle_min_length(ball, hol) == pytest.approx(
                formula, rel=1e-12
            )

    def test_balls_unit_separated(self, lattice):
        _s, _g, _saddles, fam = lattice
        balls = family_balls(fam)
        for i in range(len(balls)):
            for j in range(i + 1, len(balls)):
                assert horoball_separation(balls[i], balls[j]) >= 1.0 - 1e-6

    def test_symmetric_levels(self, lattice):
        # the octagon's rotation by pi/4 permutes the direction orbits, so
        # levels repeat with period pi/4 across the eight directions
        _s, _g, _saddles, fam = lattice
        keys = sorted(fam)
        levels = [fam[k].ball.level for k in keys]
        for i in range(len(keys) - 2):
            assert levels[i] == pytest.approx(levels[i + 2], abs=1e-5)

    def test_equivariance_under_generators(self, lattice):
        _s, g, _saddles, fam = lattice
        for mob in g.generators:
            for r in fam.values():
                if r.kind != "ball":
                    continue
                img_base = mob.apply_boundary(r.ball.base)
                matches = [
                    q
                    for q in fam.values()
                    if q.kind == "ball" and abs(q.ball.base - img_base) < 1e-6
                ]
                if not matches:
                    continue  # image direction beyond the enumerated set
                q = matches[0]
                # transported level: push one boundary point through
                p = math.tanh(0.5 * r.ball.level) * r.ball.base
                assert busemann(img_base, mob.apply_disk(p)) == pytest.approx(
                    q.ball.level, abs=1e-5
                )

    def test_anchor_on_ball_boundary(self, lattice):
        _s, _g, _saddles, fam = lattice
        for r in fam.values():
            if r.kind == "ball":
                assert busemann(r.ball.base, r.anchor) == pytest.approx(
                    r.ball.level, abs=1e-6
                )

    def test_hyperbolic_family_all_points(self):
        s, g = group_data("octagon_hyperbolic")
        fam = build_horoball_family(g, enumerate_saddle_connections(s, 2.5))
        assert all(r.kind == "point" for r in fam.values())
        for r in fam.values():
            # the anchor is the projection foot: on the hull boundary and
            # closer to the direction than other hull points
            assert abs(r.anchor) < 1.0
            assert g.hull.contains(r.anchor, tol=1e-6)

    def test_cusped_family_mixed(self):
        s, g = group_data("octagon_cusped")
        fam = build_horoball_family(g, enumerate_saddle_connections(s, 2.5))
        kinds = sorted(r.kind for r in fam.values())
        assert "ball" in kinds and "point" in kinds

    def test_parallel_saddles_share_region(self, lattice):
        _s, _g, saddles, fam = lattice
        horizontals = [sc for sc in saddles if abs(sc.direction) < 1e-9]
        assert len(horizontals) >= 2
        assert region_for(fam, 0.0) is region_for(fam, horizontals[1].direction)

    def test_classification_complete(self):
        # dichotomy check: every enumerated direction is parabolic-with-witness
        # or projects to the hull boundary; the build raises on contradictions
        for name, L in [
            ("octagon_lattice", 2.5),
            ("octagon_cusped", 2.5),
            ("octagon_hyperbolic", 2.5),
            ("lshape_lattice", 2.3),
        ]:
            s, g = group_data(name)
            fam = build_horoball_family(g, enumerate_saddle_connections(s, L))
            for r in fam.values():
                assert (r.kind == "ball") == (r.witness is not None)


class TestDirectionsAndOrbits:
    @pytest.mark.parametrize("name", ["lshape", "octagon", "double_pentagon"])
    @pytest.mark.parametrize("cutoff", [2.5, 5.0, 10.0, 15.0])
    def test_distinct_directions_match_scan(self, name, cutoff):
        saddles = checked_saddles(name, cutoff)
        assert veech.distinct_directions(saddles) == (
            oracles.distinct_directions_by_scan(saddles)
        )

    def test_directions_merge_across_pi(self):
        def saddle(direction, length):
            hol = length * cmath.exp(1j * direction)
            return types.SimpleNamespace(direction=direction, length=length, holonomy=hol)

        saddles = [
            saddle(2e-9, 2.0),
            saddle(1.0, 1.0),
            saddle(math.pi - 3e-9, 1.5),
            saddle(1.0 + 5e-9, 0.5),
            saddle(2.0, 1.0),
        ]
        dirs = veech.distinct_directions(saddles)
        assert dirs == oracles.distinct_directions_by_scan(saddles)
        assert [t for t, _h in dirs] == [1.0 + 5e-9, 2.0, math.pi - 3e-9]

    def test_orbit_images_once_per_representative(self, monkeypatch):
        # 161 images (the identity and the 160 words to ORBIT_DEPTH) for each
        # of the three representatives that a later direction scans
        s, g = group_data("lshape_lattice")
        saddles = enumerate_saddle_connections(s, 2.5)
        calls = []
        apply = Mobius.apply_boundary
        monkeypatch.setattr(
            Mobius, "apply_boundary", lambda m, xi: calls.append(xi) or apply(m, xi)
        )
        build_horoball_family(g, saddles)
        assert len(calls) <= 3 * 161


class TestHullLookup:
    @pytest.mark.parametrize("name", PRESETS + ["double_pentagon_lattice"])
    @pytest.mark.parametrize("depth", [4, 6])
    @pytest.mark.parametrize("cutoff", [2.5, 5.0])
    def test_family_matches_scans(self, name, depth, cutoff):
        # the side facing each direction answers the three hull questions as
        # the scans over every sample point and every side do, to the bit
        s, g = group_data(name, depth)
        hull = g.hull
        saddles = enumerate_saddle_connections(s, cutoff)
        inside_not_parabolic = False
        for sc in saddles:
            xi = boundary_from_direction(sc.direction)
            side = hull.side_facing(xi)
            meets = min(abs(xi - side.start), abs(xi - side.end)) < veech.ANGLE_DEDUP
            assert meets == oracles.meets_sample_by_scan(hull, xi)
            parabolic = any(abs(xi - x) < 1e-6 for x, _w in g.parabolic_fixed_points)
            inside_not_parabolic |= meets and not parabolic
        # the one preset and cutoff where a direction meets the sample
        assert inside_not_parabolic == ((name, cutoff) == ("double_pentagon_lattice", 5.0))
        if inside_not_parabolic:
            with pytest.raises(DirectionInsideHullNotParabolic, match="0.3141592653589"):
                build_horoball_family(g, saddles)
            return
        for r in build_horoball_family(g, saddles).values():
            xi = r.boundary_point
            if r.kind == "point":
                assert r.anchor == oracles.boundary_foot_by_nudge(hull, xi)
            else:
                clearance = geodesic_max_busemann(hull.side_facing(xi), xi) + 1.0
                assert clearance == oracles.hull_clearance_by_scan(hull, xi)

    def test_cusp_at_hull_vertex_raises(self):
        # a sample point on a cusp leaves no side facing it alone
        s, g = group_data("lshape_lattice", depth=4)
        xi = boundary_from_direction(0.0)
        vertices = [side.start for side in g.hull.sides] + [xi]
        g = g._replace(hull=build_hull(vertices))
        with pytest.raises(CuspAtHullVertex, match="direction 0.0 "):
            build_horoball_family(g, enumerate_saddle_connections(s, 2.5))
