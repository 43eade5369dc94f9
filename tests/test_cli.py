"""Tests for the command line driver: catalog, run pipeline, rendering."""

import json
from dataclasses import asdict
from importlib import resources

import pytest

from flatbundle import cli

OCTAGON_POLYGONS = json.loads(
    (resources.files("flatbundle") / "data" / "octagon.json").read_text()
)["polygons"]


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
        ],
        ids=["no-gluings", "empty-gluings", "string-depth", "unknown-field"],
    )
    def test_bad_input_is_one_error_line(
        self, command, flag, content, tmp_path, capsys
    ):
        path = tmp_path / "input.json"
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
