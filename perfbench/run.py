"""Benchmark of ``flatbundle run`` on two catalog presets.

Usage, from the root of a checkout (``flatbundle`` need not be installed)::

    python3 perfbench/run.py --workload lshape-lattice --seed 1 --seconds 60 --trace 0

Every child is a fresh interpreter with ``src`` on its ``PYTHONPATH``, run
one at a time. A run starts set-up children (``setup_child.py``), which
time the set-up calls, and timed children, which time ``flatbundle run``
on the workload's timed input (flatbundle seed ``TIMED_SEED``) from
interpreter start to exit. One more run child uses flatbundle seed
``--seed``, so each benchmark seed also checks a new input. With
``--trace 1`` one extra run child of the timed input runs under
``traced.py`` and the per-layer metrics come from it.

Every child passes a correctness gate or counts as failed; see
``check_report``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
give the machine, every child, the report's scientific outputs and, with
``--trace 1``, the full per-layer table. README.md in this directory says
why each workload was chosen and which end-to-end metric each layer metric
should move.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

# Flags shared by all workloads; the rest keep flatbundle's defaults.
MAX_LENGTH = "2.5"
DEPTH = "6"
MAX_TRACE = "40"
# The timed input is fixed. Run time varies up to threefold between
# flatbundle seeds on lshape (README.md), so a time over seed-dependent
# inputs would spread more than any bound worth keeping.
TIMED_SEED = 1
HARD_LIMIT_S = 165.0  # children still running then are killed and fail

EXPECTED_SAMPLES = {
    ("lipschitzCollapse", "paths"): 120,
    ("structureLemma", "fans"): 60,
    ("slimness", "triangles"): 40,
}

# Layers every workload must exercise in the traced run.
COMMON_LAYERS = (
    "surface.tighten_chain",
    "surface.enumerate_saddle_connections",
    "veech.build_group_data",
    "veech.build_horoball_family",
    "veech.VeechGroupData.basepoint",
    "cylinders.trace_direction",
    "paths.build_direction_graphs",
    "paths.build_preferred_path",
    "paths.collapsed_length",
    "paths.build_fan",
    "paths.combinatorial_path",
    "hyperbolic.segment_clip_by_horoball",
    "slimness.slimness_sweep",
    "slimness.triangle_slimness",
    "render.render_horoballs",
)


@dataclass(frozen=True)
class Workload:
    surface: str
    group: str
    # Set-up children run in each gap between timed children. A set-up that
    # is mostly import time (~0.15 s) is the most sensitive to the host's
    # noise and cheap, so it gets several per gap; a ~2 s one gets one.
    setup_batch: int
    expect_calls: tuple[str, ...] = COMMON_LAYERS


WORKLOADS = {
    "lshape-lattice": Workload("lshape", "lshape_lattice", 3),
    "octagon-cusped": Workload(
        "octagon", "octagon_cusped", 1, COMMON_LAYERS + ("hyperbolic.ConvexRegion.project",)
    ),
}

END_TO_END = {
    "run_s": "s",
    "run_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (layer, stats) read from traced.py's summary; see README.md for the
# end-to-end metric each one should move.
LAYER_STATS = (
    ("surface.tighten_chain", ("calls", "busy_s", "self_s", "median_ms", "p95_ms", "failed")),
    ("surface.enumerate_saddle_connections", ("busy_s",)),
    ("veech.build_group_data", ("busy_s",)),
    ("cylinders.trace_direction", ("calls", "busy_s")),
    ("paths.build_direction_graphs", ("busy_s",)),
    ("hyperbolic.segment_clip_by_horoball", ("calls", "busy_s", "median_ms")),
    ("paths.collapsed_length", ("calls", "busy_s", "self_s")),
    # ConvexRegion.project is never called on lshape-lattice, so its
    # time would read exactly 0 there; basepoint.busy_s, which holds both
    # calls, stands in for it.
    ("hyperbolic.ConvexRegion.project", ("calls",)),
    ("veech.build_horoball_family", ("busy_s", "self_s")),
    ("veech.VeechGroupData.basepoint", ("calls", "busy_s")),
    ("render.render_horoballs", ("busy_s",)),
    ("paths.build_preferred_path", ("calls", "busy_s", "self_s", "failed")),
    ("paths.build_fan", ("calls", "busy_s", "failed")),
    ("paths.combinatorial_path", ("busy_s",)),
    ("slimness.slimness_sweep", ("busy_s",)),
    ("slimness.triangle_slimness", ("calls", "busy_s", "self_s")),
    ("slimness.sample_distance_matrix", ("calls", "self_s")),
)
# (metric, layer, "raised" or "returned", error class): deterministic
# rejection counts.
ERROR_COUNTS = (
    ("surface.tighten_chain.raised.NotAGeodesic", "surface.tighten_chain", "raised", "NotAGeodesic"),
    ("paths.build_preferred_path.raised.MissingHoroRegion", "paths.build_preferred_path", "raised", "MissingHoroRegion"),
    ("paths.build_preferred_path.raised.NotAGeodesic", "paths.build_preferred_path", "raised", "NotAGeodesic"),
    ("paths.build_fan.raised.NotAFan", "paths.build_fan", "raised", "NotAFan"),
    ("veech.region_for.raised.NotFound", "veech.region_for", "raised", "NotFound"),
    ("cylinders.trace_direction.unclosed", "cylinders.trace_direction", "returned", "NoClosureFound"),
)
STAT_UNITS = {"calls": "count", "failed": "count", "busy_s": "s", "self_s": "s", "median_ms": "ms", "p95_ms": "ms"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        f"{layer}.{stat}": STAT_UNITS[stat] for layer, stats in LAYER_STATS for stat in stats
    }
    units.update((name, "count") for name, *_ in ERROR_COUNTS)
    units["trace_overhead_s"] = "s"
    return units


@dataclass
class Child:
    kind: str  # "setup", "timed", "checked" or "traced"
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: int, trace: bool, tmp: Path):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.tmp = tmp
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.hard_deadline = self.start + HARD_LIMIT_S
        self.children: list[Child] = []
        self.outputs: dict[int, dict[str, str]] = {}  # flatbundle seed -> file digests
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    # -- children ------------------------------------------------------------

    def _spawn(self, kind: str, argv: list[str]) -> Child:
        log_path = self.tmp / f"{kind}.log"
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable] + argv, cwd=ROOT, env=self.env,
                stdout=log, stderr=subprocess.STDOUT,
            )
            killer = threading.Timer(max(self.hard_deadline - t0, 0.0), proc.kill)
            killer.start()
            status = None
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
                if status is None:
                    proc.kill()
                    proc.wait()
        child = Child(
            kind, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode,
        )
        child.info["log"] = log_path.read_text(errors="replace")
        if child.code != 0:
            tail = child.info["log"].strip().splitlines()[-1:] or [""]
            child.problems.append(f"exit code {child.code}: {tail[0][:200]}")
        self.children.append(child)
        return child

    def run_setup(self) -> Child:
        w = self.workload
        child = self._spawn("setup", [
            str(HERE / "setup_child.py"), w.surface, w.group, MAX_LENGTH, DEPTH, MAX_TRACE,
        ])
        if not child.problems:
            try:
                child.info.update(json.loads(child.info["log"].strip().splitlines()[-1]))
            except (ValueError, IndexError):
                pass
            if not isinstance(child.info.get("setup_s"), float):
                child.problems.append("set-up child printed no JSON result with setup_s")
        return child

    def run_flatbundle(self, kind: str, seed: int) -> Child:
        w = self.workload
        out = self.tmp / "out"
        shutil.rmtree(out, ignore_errors=True)
        command = [
            "run", "--surface", w.surface, "--group", w.group, "--max-length", MAX_LENGTH,
            "--depth", DEPTH, "--max-trace", MAX_TRACE, "--seed", str(seed),
            "--out", os.path.relpath(out, ROOT),
        ]
        if kind == "traced":
            stats = self.tmp / "layers.json"
            child = self._spawn(kind, [str(HERE / "traced.py"), str(stats)] + command)
        else:
            child = self._spawn(kind, ["-m", "flatbundle.cli"] + command)
        child.info["seed"] = seed
        if child.problems:
            return child
        try:
            report = json.loads((out / "report.json").read_text())
        except (OSError, ValueError) as exc:
            child.problems.append(f"report.json unreadable: {exc}")
            return child
        child.info["report"] = report
        child.problems += check_report(report)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
        first = self.outputs.setdefault(seed, digests)
        if digests != first:
            differ = sorted(k for k in first.keys() | digests.keys() if first.get(k) != digests.get(k))
            child.problems.append(f"outputs differ from the first run of seed {seed}: {differ}")
        if kind == "traced":
            child.info["layers"] = json.loads(stats.read_text())
            missing = [
                name for name in self.workload.expect_calls
                if child.info["layers"].get(name, {}).get("calls", 0) == 0
            ]
            if missing:
                child.problems.append(f"traced run recorded no call of {missing}")
        return child

    def _fits(self, kind: str) -> bool:
        walls = [c.wall_s for c in self.children if c.kind == kind]
        return time.perf_counter() + (statistics.median(walls) if walls else 0.0) <= self.deadline

    def run_setup_batch(self, check_deadline: bool) -> None:
        for _ in range(self.workload.setup_batch):
            if check_deadline and not self._fits("setup"):
                return
            self.run_setup()

    def measure(self) -> None:
        """Three set-up batches, two timed, the checked (and traced) child
        first; then timed children and set-up batches alternate while the
        next child is expected to end before the deadline."""
        self.run_setup_batch(False)
        self.run_flatbundle("timed", TIMED_SEED)
        self.run_setup_batch(False)
        self.run_flatbundle("timed", TIMED_SEED)
        self.run_setup_batch(False)
        self.run_flatbundle("checked", self.seed)
        if self.trace:
            self.run_flatbundle("traced", TIMED_SEED)
        while True:
            if self._fits("timed"):
                self.run_flatbundle("timed", TIMED_SEED)
            elif not self._fits("setup"):
                break
            self.run_setup_batch(True)
        self.check_setup_matches_run()

    def check_setup_matches_run(self) -> None:
        reports = [c.info["report"] for c in self.of("timed") if "report" in c.info]
        if not reports:
            return
        report = reports[0]
        want = {
            "saddleConnections": report["surface"]["saddleConnections"],
            "balls": report["suites"]["classification"]["balls"],
            "points": report["suites"]["classification"]["points"],
            "graphs": report["suites"]["classification"]["balls"],
        }
        for child in self.of("setup"):
            got = {k: child.info.get(k) for k in want}
            if not child.problems and got != want:
                child.problems.append(f"set-up outputs {got} differ from the run's {want}")

    def of(self, kind: str) -> list[Child]:
        return [c for c in self.children if c.kind == kind]

    def passed(self, kind: str) -> list[Child]:
        """Children of ``kind`` that passed the gate; only they give metrics."""
        return [c for c in self.of(kind) if not c.problems]

    # -- metrics -------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        """End-to-end metrics from the passing children; a metric with no
        passing child to measure it is left out (``correct`` is false then)."""
        timed = self.passed("timed")
        setup = self.passed("setup")
        metrics: dict[str, float] = {}
        # Timed children all do the same deterministic work. Other tenants of
        # the host slow a child by up to half for tens of seconds at a time
        # (README.md) and never speed it up, and a run fits only four to
        # seven of them, so the fastest is the steadiest estimate of the
        # program's own cost.
        if timed:
            metrics["run_s"] = min(c.wall_s for c in timed)
            metrics["run_cpu_s"] = min(c.cpu_s for c in timed)
        # Set-up children are spread over the whole run (9 to 40 per run on
        # lshape-lattice, 4 to 7 on octagon-cusped), so their median is the
        # set-up time over the run, not at its fastest moment.
        if setup:
            metrics["setup_s"] = statistics.median(c.info["setup_s"] for c in setup)
        if timed:
            metrics["peak_rss_mb"] = statistics.median(c.rss_mb for c in timed)
        return metrics

    def per_layer(self) -> dict[str, float]:
        """Per-layer metrics from the traced child; none if it failed the gate."""
        traced = self.of("traced")[0]
        if traced.problems:
            return {}
        layers = traced.info["layers"]
        values: dict[str, float] = {}
        for layer, stats in LAYER_STATS:
            for stat in stats:
                value = layers.get(layer, {}).get(stat, 0)
                if stat == "p95_ms" and stat not in layers.get(layer, {}):
                    traced.problems.append(f"{layer} has too few calls for p95_ms")
                values[f"{layer}.{stat}"] = value
        for name, layer, how, error in ERROR_COUNTS:
            values[name] = layers.get(layer, {}).get(how, {}).get(error, 0)
        timed = self.passed("timed")
        if timed:
            # Against the same estimator as run_s.
            values["trace_overhead_s"] = traced.wall_s - min(c.wall_s for c in timed)
        return values


def check_report(report: dict) -> list[str]:
    """Problems with one run's report.json; empty when it passes the gate."""
    problems = []
    try:
        if report["passed"] is not True:
            failing = [n for n, s in report["suites"].items() if not s["passed"]]
            problems.append(f"report not passed; failing suites {failing}")
        for (suite, key), want in EXPECTED_SAMPLES.items():
            got = report["suites"][suite][key]
            if got != want:
                problems.append(f"{suite}.{key} is {got}, expected {want}")
        pairs = report["suites"]["combinatorialRatio"]["pairs"]
        if not pairs > 0:
            problems.append(f"combinatorialRatio.pairs is {pairs}, expected > 0")
    except (KeyError, TypeError) as exc:
        problems.append(f"report.json lacks {exc}")
    return problems


def science(report: dict) -> dict:
    """Scientific outputs recorded next to the timings (not gated)."""
    s = report["suites"]
    return {
        "saddleConnections": report["surface"]["saddleConnections"],
        "balls": s["classification"]["balls"],
        "points": s["classification"]["points"],
        "deltaMax": s["slimness"]["deltaMax"],
        "minMargin": s["lipschitzCollapse"]["minMargin"],
        "maxRatio": s["combinatorialRatio"]["maxRatio"],
    }


def machine_info() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        sha = done.stdout.strip() or sha
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="flatbundle seed of the extra checked run (>= 0)")
    parser.add_argument("--seconds", type=int, default=60, help="time budget for the children")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "flatbundle" / "cli.py").is_file():
        print(f"error: no flatbundle sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workload = WORKLOADS[args.workload]
    info = machine_info()
    print(f"# {args.workload}: {workload.surface}/{workload.group} --max-length {MAX_LENGTH} "
          f"timed seed {TIMED_SEED}, checked seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print("# machine " + json.dumps(info, sort_keys=True))
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench = Bench(workload, args.seed, args.seconds, bool(args.trace), tmp)
        bench.measure()
        if args.trace:
            metrics = bench.per_layer()
            units = per_layer_units()
        else:
            metrics = bench.end_to_end()
            units = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for child in bench.children:
        if child.kind == "setup" and not child.problems:
            continue
        extra = f" seed {child.info['seed']}" if "seed" in child.info else ""
        status = "ok" if not child.problems else "FAILED: " + "; ".join(child.problems)
        print(f"# child {child.kind:6s} wall {child.wall_s:8.4f} s  cpu {child.cpu_s:8.4f} s  "
              f"rss {child.rss_mb:6.1f} MB{extra}  {status}")
    for kind, times in (
        ("timed", [c.wall_s for c in bench.passed("timed")]),
        ("setup", [c.info["setup_s"] for c in bench.passed("setup")]),
    ):
        if times:
            print(f"# {kind} children {len(times)}: min {min(times):.4f} "
                  f"median {statistics.median(times):.4f} max {max(times):.4f} s")
    for kind in ("timed", "checked"):
        for child in bench.of(kind)[:1]:
            if "report" in child.info:
                print(f"# science seed {child.info['seed']} " + json.dumps(science(child.info["report"])))
    if args.trace:
        print("# layer calls busy_s self_s median_ms failed raised returned")
        for name, s in bench.of("traced")[0].info.get("layers", {}).items():
            if s["calls"]:
                print(f"# layer {name} {s['calls']} {s['busy_s']:.4f} {s['self_s']:.4f} "
                      f"{s['median_ms']:.4f} {s['failed']} {json.dumps(s['raised'])} {json.dumps(s['returned'])}")
    for name, value in metrics.items():
        print(f"# metric {name} = {value:.6g} {units[name]}")

    failed = sum(1 for c in bench.children if c.problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(bench.children),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
