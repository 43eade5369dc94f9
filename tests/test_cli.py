"""Tests for the command line driver: catalog, run pipeline, rendering."""

import argparse
import copy
import json
from dataclasses import asdict
from importlib import resources
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatbundle import catalog, cli, paths, render, veech
from flatbundle.errors import FlatBundleError, NoCylinders


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
        out = tmp_path / "run"
        code = run_cli(["run", "--group", "lshape_lattice", "--surface", "lshape",
                        "--depth", "40", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: depth 40 gives")
        assert not out.exists()

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

    def test_config_roundtrip(self, tmp_path):
        cfg = cli.ExperimentConfig(surface="lshape", seed=9, max_trace=12.0)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(asdict(cfg)))
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
        doc = _substitute(data, asdict(cli.ExperimentConfig()), value)
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

        def recording(surface, path, family):
            value = paths.collapsed_length(surface, path, family)
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
