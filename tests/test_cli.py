"""Tests for the command line driver: catalog, run pipeline, rendering."""

import argparse
import copy
import gc
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatbundle import catalog, cli, hyperbolic, paths, render, veech
from flatbundle.errors import (
    CutoffTooLarge,
    FlatBundleError,
    MissingHoroRegion,
    NoCylinders,
    NotAGeodesic,
)
from flatbundle.surface import Corner

import oracles


def _data(name):
    return json.loads(
        (resources.files("flatbundle") / "data" / f"{name}.json").read_text()
    )


OCTAGON_POLYGONS = _data("octagon")["polygons"]


def run_cli(argv):
    return cli.main(argv)


class TestCatalog:
    def test_listing(self, capsys):
        assert run_cli(["catalog"]) == 0
        out = capsys.readouterr().out
        for name in ("octagon", "double_pentagon", "lshape"):
            assert name in out
        assert "octagon_lattice" in out

    def test_json_listing(self, capsys):
        assert run_cli(["catalog", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert len(listing["surfaces"]) >= 3
        assert len(listing["groups"]) >= 3
        assert all("words" in g for g in listing["groups"].values())

    def test_unknown_id_suggestion(self, capsys):
        code = run_cli(
            ["run", "--surface", "octagn", "--group", "octagon_lattice"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "octagn" in err and "octagon" in err


class TestValidation:
    def test_max_trace_zero_fails_before_work(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(
            [
                "run",
                "--surface", "octagon",
                "--group", "octagon_lattice",
                "--max-trace", "0",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert "max-trace" in capsys.readouterr().err
        assert not out.exists()

    def test_depth_over_word_budget_fails_before_work(self, tmp_path, capsys, monkeypatch):
        # 2 * (3^40 - 1) group words; the count is refused before any is built
        monkeypatch.setattr(veech, "group_words", None)
        monkeypatch.setattr(cli, "enumerate_saddle_connections", None)
        out = tmp_path / "run"
        code = run_cli(["run", "--group", "lshape_lattice", "--surface", "lshape",
                        "--depth", "40", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: depth 40 gives")
        assert not out.exists()

    def test_bad_basis_reported_over_cutoff(self, tmp_path, capsys, monkeypatch):
        # a run whose enumeration exceeds its budget still reports the
        # basis's own failure when the basis is not an automorphism
        enumerate_all = cli.enumerate_saddle_connections

        def budgeted(surface, cutoff):
            if cutoff > veech.VERIFY_LENGTH:
                raise CutoffTooLarge("unfolding exceeded the work budget")
            return enumerate_all(surface, cutoff)

        monkeypatch.setattr(cli, "enumerate_saddle_connections", budgeted)
        group = tmp_path / "bad.json"
        group.write_text(json.dumps({"surface": "lshape", "generators": [[[1, 0.5], [0, 1]]]}))
        argv = ["run", "--surface", "lshape", "--max-length", "150",
                "--out", str(tmp_path / "run")]
        assert run_cli(argv + ["--group", str(group)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "is not a saddle connection" in err[0]
        # a basis that passes leaves the cutoff's own error
        assert run_cli(argv + ["--group", "lshape_lattice"]) == 2
        assert capsys.readouterr().err.startswith("error: unfolding exceeded")

    def test_bad_basis_is_reported_before_the_run_enumerates(
        self, tmp_path, capsys, monkeypatch
    ):
        # a basis that is not an automorphism fails its check on the check's
        # own enumeration, before the run enumerates to a large cutoff
        cutoffs = []
        enumerate_all = cli.enumerate_saddle_connections
        monkeypatch.setattr(
            cli,
            "enumerate_saddle_connections",
            lambda surface, cutoff: cutoffs.append(cutoff) or enumerate_all(surface, cutoff),
        )
        group = tmp_path / "shear.json"
        group.write_text(json.dumps({"surface": "lshape", "generators": [[[1, 0.5], [0, 1]]]}))
        argv = ["run", "--surface", "lshape", "--group", str(group), "--max-length", "60",
                "--out", str(tmp_path / "run")]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "is not a saddle connection" in err[0]
        assert cutoffs == [veech.VERIFY_LENGTH]

    def test_group_surface_mismatch(self, capsys):
        code = run_cli(
            ["run", "--surface", "octagon", "--group", "lshape_lattice"]
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["run", "render"])
    @pytest.mark.parametrize(
        "flag, content",
        [
            ("--surface", {"polygons": OCTAGON_POLYGONS}),
            ("--surface", {"polygons": OCTAGON_POLYGONS, "gluings": []}),
            ("--config", {"depth": "6"}),
            ("--config", {"depht": 6}),
            ("--surface", {"polygons": OCTAGON_POLYGONS, "gluings": [[0, 1]]}),
            ("--surface", {"polygons": 3}),
            ("--group", {"surface": "octagon", "generators": 5}),
            ("--group", {"surface": "octagon", "generators": [[[1, "x"], [0, 1]]]}),
            ("--group", {"surface": "octagon", "words": [[1, -3]]}),
            ("--group", {"generators": [[[1, 2], [0, 1]]], "words": [[1], [0]]}),
            ("--config", [1, 2]),
            ("--config", None),
        ],
        ids=[
            "no-gluings", "empty-gluings", "string-depth", "unknown-field",
            "flat-gluing-pair", "number-polygons", "number-generators",
            "string-matrix-entry", "basis-letter-out-of-range",
            "generator-letter-zero", "list-config", "missing-config",
        ],
    )
    def test_bad_input_is_one_error_line(
        self, command, flag, content, tmp_path, capsys
    ):
        path = tmp_path / "input.json"
        if content is not None:  # None: the file does not exist
            path.write_text(json.dumps(content))
        argv = [command, flag, str(path), "--out", str(tmp_path / "out")]
        if command == "render":
            argv += ["--kind", "horoballs"]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_run_out_over_a_file_is_one_error_line(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = ["run", "--surface", "lshape", "--group", "lshape_lattice",
                "--max-length", "2.5", "--out", str(taken)]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot write {taken / 'report.json'}: File exists"]

    def test_render_out_over_a_directory_is_one_error_line(self, tmp_path, capsys):
        argv = ["render", "--kind", "horoballs", "--surface", "lshape",
                "--group", "lshape_lattice", "--max-length", "2.5", "--out", str(tmp_path)]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: cannot write {tmp_path}: Is a directory"]
        assert captured.out == ""

    def test_config_roundtrip(self, tmp_path):
        cfg = cli.ExperimentConfig(surface="lshape", seed=9, max_trace=12.0)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg._asdict()))
        loaded = cli.ExperimentConfig(
            **json.loads(path.read_text())
        )
        assert loaded == cfg


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)


def _substitute(data, doc, value, whole=True):
    """``doc`` with the whole (when ``whole``), one field or one nested entry
    set to ``value``."""
    doc = copy.deepcopy(doc)
    key = data.draw(st.sampled_from(([None] if whole else []) + sorted(doc)))
    if key is None:
        return value
    node = doc
    while node[key] and isinstance(node[key], (list, dict)):
        if not data.draw(st.booleans()):
            break
        node = node[key]
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(keys))
    node[key] = value
    return doc


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


class TestParserFuzz:
    """Malformed but parseable JSON gives a result or a typed error."""

    @given(st.data(), st.sampled_from(catalog.surface_names()), json_values)
    @settings(max_examples=150, deadline=None)
    def test_surface(self, data, name, value):
        doc = _substitute(data, _data(name), value)
        try:
            catalog.parse_surface(doc, name)
        except (FlatBundleError, ValueError):
            pass

    @given(
        st.data(), st.sampled_from(catalog.group_names()), st.booleans(), json_values
    )
    @settings(max_examples=150, deadline=None)
    def test_group(self, data, name, bare, value):
        # a shipped preset, or the same group as a file with bare generators
        doc = _data("groups")[name]
        if bare:
            doc = dict(doc, generators=_data(doc["surface"])["basis"])
        doc = _substitute(data, doc, value)
        try:
            catalog.parse_group(doc, name)
        except (FlatBundleError, ValueError):
            pass

    @given(st.data(), st.sampled_from(catalog.group_names()), json_values)
    @settings(max_examples=100, deadline=None)
    def test_group_on_mutated_surface_basis(self, data, name, value):
        preset = _data("groups")[name]
        surface = _data(preset["surface"])
        surface.update(_substitute(data, {"basis": surface["basis"]}, value, False))
        real = catalog._data
        data_files = lambda n: surface if n == preset["surface"] else real(n)
        with mock.patch.object(catalog, "_data", data_files):
            try:
                catalog.parse_group(preset, name)
            except (FlatBundleError, ValueError):
                pass

    @given(st.data(), json_values)
    @settings(max_examples=100, deadline=None)
    def test_config(self, config_path, data, value):
        doc = _substitute(data, cli.ExperimentConfig()._asdict(), value)
        config_path.write_text(json.dumps(doc))
        args = argparse.Namespace(config=str(config_path))
        try:
            cli._config_from_args(args).validate()
        except (FlatBundleError, ValueError):
            pass


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    code = run_cli(
        [
            "run",
            "--surface", "octagon",
            "--group", "octagon_lattice",
            "--max-length", "2.5",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestRun:
    def test_outputs_exist(self, run_dir):
        for name in ("report.json", "deltas.csv", "horoballs.svg"):
            assert (run_dir / name).exists()

    def test_all_suites_pass(self, run_dir):
        report = json.loads((run_dir / "report.json").read_text())
        assert report["passed"]
        assert all(s["passed"] for s in report["suites"].values())
        assert report["suites"]["classification"]["balls"] > 0

    def test_deltas_csv_rows(self, run_dir):
        lines = (run_dir / "deltas.csv").read_text().strip().splitlines()
        assert lines[0] == "triangle,delta"
        assert len(lines) > 1
        for line in lines[1:]:
            float(line.rsplit(",", 1)[1])

    def test_deterministic_reruns(self, run_dir, tmp_path):
        out2 = tmp_path / "again"
        first = {
            p.name: p.read_bytes() for p in run_dir.iterdir()
        }
        code = run_cli(
            [
                "run",
                "--surface", "octagon",
                "--group", "octagon_lattice",
                "--max-length", "2.5",
                "--seed", "1",
                "--out", str(out2),
            ]
        )
        assert code == 0
        for name, blob in first.items():
            if name == "report.json":
                # the report embeds the output path; compare modulo config.out
                r1 = json.loads(blob)
                r2 = json.loads((out2 / name).read_text())
                r1["config"].pop("out")
                r2["config"].pop("out")
                assert r1 == r2
            else:
                assert (out2 / name).read_bytes() == blob

    def test_path_svg_is_first_lipschitz_path(self, tmp_path, monkeypatch):
        accepted = []

        def recording(path, family):
            value = paths.collapsed_length(path, family)
            accepted.append(path)
            return value

        monkeypatch.setattr(cli, "collapsed_length", recording)
        out = tmp_path / "run"
        argv = ["run", "--surface", "lshape", "--group", "lshape_lattice",
                "--max-length", "2.5", "--seed", "2", "--out", str(out)]
        assert run_cli(argv) == 0
        assert (out / "path.svg").read_text() == render.render_path(accepted[0])

    def test_unclosed_direction_fails_cylinder_suite(self, tmp_path, capsys):
        # at this trace budget no ball direction closes up
        code = run_cli(
            [
                "run",
                "--surface", "octagon",
                "--group", "octagon_lattice",
                "--max-length", "2.5",
                "--max-trace", "1",
                "--out", str(tmp_path / "short"),
            ]
        )
        assert code == 1
        assert "first failing suite: cylinderArea" in capsys.readouterr().err
        report = json.loads((tmp_path / "short" / "report.json").read_text())
        suite = report["suites"]["cylinderArea"]
        assert suite["areaViolationsOrUnclosed"] == suite["directionsChecked"] > 0

    def test_failed_assembly_fails_cylinder_suite(self, tmp_path, capsys, monkeypatch):
        # a direction whose cylinders do not tile the surface fails the
        # cylinderArea suite; the run still writes its report
        trace, calls = paths.trace_direction, []

        def failing(surface, theta, max_trace):
            calls.append(theta)
            if len(calls) == 1:
                raise NoCylinders("cylinder areas do not tile the surface")
            return trace(surface, theta, max_trace)

        monkeypatch.setattr(paths, "trace_direction", failing)
        out = tmp_path / "bad"
        code = run_cli(
            [
                "run",
                "--surface", "lshape",
                "--group", "lshape_lattice",
                "--max-length", "2.5",
                "--out", str(out),
            ]
        )
        assert code == 1
        assert "first failing suite: cylinderArea" in capsys.readouterr().err
        suite = json.loads((out / "report.json").read_text())["suites"]["cylinderArea"]
        assert suite["areaViolationsOrUnclosed"] == 1
        assert suite["directionsChecked"] == len(calls) > 1

    def test_failing_suite_exits_nonzero(self, tmp_path, capsys):
        # a cutoff below the shortest saddle leaves every sweep empty
        out = tmp_path / "tiny"
        code = run_cli(
            [
                "run",
                "--surface", "octagon",
                "--group", "octagon_lattice",
                "--max-length", "0.9",
                "--out", str(out),
            ]
        )
        assert code == 1
        assert "first failing suite" in capsys.readouterr().err
        # with no saddle to draw from, no sampling suite draws
        suites = json.loads((out / "report.json").read_text())["suites"]
        for name in ("lipschitzCollapse", "structureLemma", "slimness", "combinatorialRatio"):
            assert (suites[name]["attempts"], suites[name]["rejected"]) == (0, {}), name

    def test_config_out_is_honoured(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out": str(tmp_path / "from-config")}))
        parser = cli.build_parser()
        cfg = cli._config_from_args(parser.parse_args(["run", "--config", str(config)]))
        assert cfg.out == str(tmp_path / "from-config")
        argv = ["run", "--config", str(config), "--out", str(tmp_path / "from-flag")]
        assert cli._config_from_args(parser.parse_args(argv)).out == str(tmp_path / "from-flag")
        assert cli._config_from_args(parser.parse_args(["run"])).out == "out"


# Scientific outputs of the two benchmark workloads at --max-length 2.5
# --seed 1, recorded before the slimness kernel was vectorised. A change
# that is only meant to be faster must leave them where they are.
PINNED_SCIENCE = {
    ("lshape", "lshape_lattice"): {
        "saddleConnections": 24,
        "deltaMax": 3.203932449220881,
        "quantiles": {
            "q00": 0.0, "q25": 0.0, "q50": 0.0, "q75": 0.8618638407104131,
            "q90": 1.087762305460068, "q100": 3.203932449220881,
        },
        "minMargin": 0.17448963693023245,
        "maxRatio": 0.5878612080717203,
        "pairs": 51,
        "samples": {"paths": 120, "fans": 60, "triangles": 40},
    },
    ("octagon", "octagon_cusped"): {
        "saddleConnections": 20,
        "deltaMax": 2.937015002507895,
        "quantiles": {
            "q00": 0.0, "q25": 0.0, "q50": 0.0, "q75": 0.24974034266745967,
            "q90": 1.1433488217761953, "q100": 2.937015002507895,
        },
        "minMargin": 0.0,
        "maxRatio": 1.4247064488787322,
        "pairs": 53,
        "samples": {"paths": 120, "fans": 60, "triangles": 40},
    },
}


@pytest.mark.parametrize("surface, group", sorted(PINNED_SCIENCE))
def test_benchmark_science_pinned(surface, group, tmp_path):
    out = tmp_path / "run"
    code = run_cli([
        "run", "--surface", surface, "--group", group, "--max-length", "2.5",
        "--depth", "6", "--max-trace", "40", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    suites = report["suites"]
    want = PINNED_SCIENCE[surface, group]
    assert report["surface"]["saddleConnections"] == want["saddleConnections"]
    assert suites["slimness"]["deltaMax"] == pytest.approx(want["deltaMax"], abs=1e-9)
    assert suites["slimness"]["quantiles"] == pytest.approx(want["quantiles"], abs=1e-9)
    assert suites["lipschitzCollapse"]["minMargin"] == pytest.approx(want["minMargin"], abs=1e-9)
    assert suites["combinatorialRatio"]["maxRatio"] == pytest.approx(want["maxRatio"], abs=1e-9)
    assert suites["combinatorialRatio"]["pairs"] == want["pairs"]
    assert {
        "paths": suites["lipschitzCollapse"]["paths"],
        "fans": suites["structureLemma"]["fans"],
        "triangles": suites["slimness"]["triangles"],
    } == want["samples"]
    for suite, accepted in (
        ("slimness", "triangles"), ("lipschitzCollapse", "paths"), ("structureLemma", "fans"),
        ("combinatorialRatio", "pairs"),
    ):
        got = suites[suite]
        assert got["attempts"] == got[accepted] + sum(got["rejected"].values())


def test_traced_gate_projects_the_hull_once(tmp_path, monkeypatch):
    # perfbench's traced octagon-cusped run fails unless it records a call
    # of ConvexRegion.project and a read of VeechGroupData.basepoint
    calls = []
    project, basepoint = hyperbolic.ConvexRegion.project, veech.VeechGroupData.basepoint
    monkeypatch.setattr(
        hyperbolic.ConvexRegion,
        "project",
        lambda self, z: calls.append("project") or project(self, z),
    )
    monkeypatch.setattr(
        veech.VeechGroupData,
        "basepoint",
        property(lambda self: calls.append("basepoint") or basepoint.fget(self)),
    )
    code = run_cli([
        "run", "--surface", "octagon", "--group", "octagon_cusped", "--max-length", "2.5",
        "--depth", "6", "--max-trace", "40", "--seed", "1", "--out", str(tmp_path / "run"),
    ])
    assert code == 0
    assert calls.count("project") == 1 and "basepoint" in calls


@pytest.mark.parametrize("cutoff, cutoffs", [(2.5, [2.5]), (5.0, [2.5, 5.0]), (1.5, [2.5])])
def test_set_up_enumerates_once(cutoff, cutoffs, monkeypatch):
    # the affine check's enumeration at VERIFY_LENGTH comes first and
    # serves every cutoff up to it; a larger cutoff enumerates once more
    # after the basis has passed; the hull finds the center's side without
    # measuring every side
    enumerated, measured = [], []
    enumerate_all, side_of = cli.enumerate_saddle_connections, hyperbolic.Geodesic.side_of
    counting = lambda surface, cutoff: enumerated.append(cutoff) or enumerate_all(surface, cutoff)
    monkeypatch.setattr(cli, "enumerate_saddle_connections", counting)
    monkeypatch.setattr(
        hyperbolic.Geodesic, "side_of", lambda g, z: measured.append(g) or side_of(g, z)
    )
    cfg = cli.ExperimentConfig(surface="octagon", group="octagon_cusped", max_length=cutoff)
    _surface, gdata, _saddles, _family = cli._build_pipeline(cfg)
    assert enumerated == cutoffs
    assert len(gdata.hull.sides) > 1000 and len(measured) <= 2


class TestRender:
    @pytest.mark.parametrize("kind", ["horoballs", "cylinders", "ideal-fan", "path"])
    def test_kinds_deterministic(self, kind, tmp_path, capsys):
        args = [
            "render",
            "--kind", kind,
            "--surface", "octagon",
            "--group", "octagon_lattice",
            "--max-length", "2.5",
            "--seed", "3",
        ]
        f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
        assert run_cli(args + ["--out", str(f1)]) == 0
        assert run_cli(args + ["--out", str(f2)]) == 0
        capsys.readouterr()
        blob = f1.read_bytes()
        assert blob == f2.read_bytes()
        assert blob.startswith(b"<svg")
        assert b'width="1000"' in blob

    def test_path_is_drawn_through_the_reference_points(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(render, "_polyline", lambda points, *_: drawn.append(points) or "")
        z1, z2 = 0.1 + 0.2j, -0.5j
        render.render_path(paths.PreferredPath((paths.HorizontalPiece(z1, z2, Corner(0, 0)),)))
        assert drawn == [oracles.segment_points(z1, z2, 32)]

    def test_cylinders_unavailable_is_missing_input(self, tmp_path, capsys):
        # purely hyperbolic preset: no parabolic direction to decompose
        code = run_cli(
            [
                "render",
                "--kind", "cylinders",
                "--surface", "octagon",
                "--group", "octagon_hyperbolic",
                "--max-length", "2.5",
                "--out", str(tmp_path / "c.svg"),
            ]
        )
        assert code == 2
        assert "no parabolic" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "surface, group", [("lshape", "lshape_lattice"), ("octagon", "octagon_cusped")]
    )
    def test_cylinders_draws_what_run_writes(self, tmp_path, capsys, surface, group):
        # render draws the first decomposition in key order, the one run
        # writes to cylinders.svg
        args = ["--surface", surface, "--group", group, "--max-length", "2.5"]
        assert run_cli(["run", *args, "--out", str(tmp_path / "run")]) == 0
        svg = tmp_path / "c.svg"
        assert run_cli(["render", "--kind", "cylinders", *args, "--out", str(svg)]) == 0
        capsys.readouterr()
        assert svg.read_bytes() == (tmp_path / "run" / "cylinders.svg").read_bytes()

    def test_cylinders_without_a_decomposition_is_missing_input(self, tmp_path, capsys):
        # at this trace budget no ball direction closes up (as in
        # test_unclosed_direction_fails_cylinder_suite)
        code = run_cli(
            [
                "render",
                "--kind", "cylinders",
                "--surface", "octagon",
                "--group", "octagon_lattice",
                "--max-length", "2.5",
                "--max-trace", "1",
                "--out", str(tmp_path / "c.svg"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: no direction decomposed within max-trace"
        ]
        assert not (tmp_path / "c.svg").exists()

    def test_draws_are_counted(self, tmp_path, capsys):
        args = [
            "render", "--kind", "ideal-fan", "--surface", "lshape",
            "--group", "lshape_lattice", "--max-length", "2.5", "--seed", "1",
            "--out", str(tmp_path / "fan.svg"),
        ]
        assert run_cli(args) == 0
        assert capsys.readouterr().err.splitlines() == [
            'ideal-fan draws: 6 attempts, rejected {"noFan": 5}'
        ]
        with mock.patch.object(cli, "random_fan", lambda *_: None):
            assert run_cli(args) == 2
        assert capsys.readouterr().err.splitlines() == [
            'ideal-fan draws: 2000 attempts, rejected {"noFan": 2000}',
            "error: no fan found at this seed and cutoff",
        ]

    def test_path_rejections_by_class_leave_the_svg(self, tmp_path, capsys):
        # draws that raise consume no randomness here, so the path drawn
        # after them is the one drawn first without them
        real = cli._random_path
        failures = iter([MissingHoroRegion("missing"), NotAGeodesic("stuck")])

        def flaky(*args):
            exc = next(failures, None)
            if exc is not None:
                raise exc
            return real(*args)

        args = [
            "render", "--kind", "path", "--surface", "octagon",
            "--group", "octagon_cusped", "--max-length", "2.5", "--seed", "2",
        ]
        plain, counted = tmp_path / "plain.svg", tmp_path / "counted.svg"
        assert run_cli(args + ["--out", str(plain)]) == 0
        with mock.patch.object(cli, "_random_path", flaky):
            assert run_cli(args + ["--out", str(counted)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "path draws: 1 attempts, rejected {}",
            'path draws: 3 attempts, rejected {"MissingHoroRegion": 1, "NotAGeodesic": 1}',
        ]
        assert plain.read_bytes() == counted.read_bytes()


ROOT = Path(__file__).resolve().parent.parent
# Runs a module or script as __main__ in a fresh interpreter and reports on
# its last line whether numpy and dataclasses were imported.
_REPORT_IMPORTS = """
import runpy, sys
target, sys.argv = sys.argv[1], sys.argv[1:]
try:
    if target.endswith(".py"):
        runpy.run_path(target, run_name="__main__")
    else:
        runpy.run_module(target, run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
print("numpy imported:", "numpy" in sys.modules,
      "dataclasses imported:", "dataclasses" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["flatbundle.cli", "run", "--surface", "lshape", "--group", "lshape_lattice",
         "--max-length", "2.5", "--seed", "1", "--out", "{tmp}/run"],
        ["flatbundle.cli", "render", "--kind", "path", "--surface", "lshape",
         "--group", "lshape_lattice", "--max-length", "2.5", "--out", "{tmp}/path.svg"],
        [str(ROOT / "perfbench" / "setup_child.py"), "lshape", "lshape_lattice", "2.5", "6", "40"],
    ],
    ids=["run", "render-path", "perfbench-setup"],
)
def test_numpy_is_not_imported(argv, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_IMPORTS, *(a.format(tmp=tmp_path) for a in argv)],
        capture_output=True, text=True, env=env, cwd=tmp_path, check=True,
    )
    assert proc.stdout.splitlines()[-1] == (
        "numpy imported: False dataclasses imported: False"
    )


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(enabled, capsys):
    # only the command-line entry point freezes the collector, since its
    # process exits next; in-process callers keep theirs as it was
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    frozen = gc.get_freeze_count()
    try:
        assert run_cli(["catalog"]) == 0
        assert run_cli(["run", "--surface", "octagn", "--group", "octagon_lattice"]) == 2
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()


# how the ``flatbundle`` script that pip writes from pyproject.toml calls it
_SCRIPT = "import sys; from flatbundle.cli import script_main; sys.exit(script_main())"


@pytest.mark.parametrize(
    "entry", [["-m", "flatbundle.cli"], ["-c", _SCRIPT]], ids=["module", "script"]
)
def test_command_line_exit_codes_and_outputs(entry, tmp_path, monkeypatch, capsys):
    # the entry point freezes the collector before the interpreter exits;
    # exit codes, printed output and written files are those of main
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    def command(*argv):
        return subprocess.run(
            [sys.executable, *entry, *argv], capture_output=True, text=True, env=env,
            cwd=tmp_path,
        )

    listing = command("catalog", "--json")
    assert listing.returncode == 0
    assert "octagon_cusped" in json.loads(listing.stdout)["groups"]
    bad = command("run", "--surface", "octagn", "--group", "octagon_lattice")
    assert bad.returncode == 2
    assert bad.stderr.startswith("error: ") and len(bad.stderr.splitlines()) == 1
    args = ["run", "--surface", "octagon", "--group", "octagon_cusped",
            "--max-length", "2.5", "--seed", "1", "--out", "run"]
    done = command(*args)
    assert done.returncode == 0
    assert done.stdout.splitlines()[-1] == "report written to run/report.json"
    written = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    monkeypatch.chdir(tmp_path)
    assert run_cli(args) == 0
    assert capsys.readouterr().out == done.stdout
    assert {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()} == written
