"""Command line driver: catalog listing, experiment runs, SVG rendering."""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import sys
from pathlib import Path
from typing import NamedTuple

from . import catalog, render, slimness
from .errors import (
    FlatBundleError,
    MissingInput,
    UnknownCatalogId,
)
from .hyperbolic import hyp_distance
from .paths import (
    FiberPoint,
    build_direction_graphs,
    build_preferred_path,
    check_structure_lemma,
    collapsed_length,
    combinatorial_path,
    draw_until,
    family_adjacency,
    random_fan,
    reverse_pairs,
)
from .surface import TOL_VERTEX, enumerate_saddle_connections, tighten_chain
from .veech import (
    VERIFY_LENGTH,
    build_group_data,
    build_horoball_family,
    check_word_budget,
    family_balls,
)

_COUNTS = {
    "paths": 120,
    "fans": 60,
    "slim_triangles": 40,
    "ratio_pairs": 60,
}
# accepted Python types for each ExperimentConfig field, by its default's type
_FIELD_TYPES = {int: (int,), float: (int, float), str: (str,)}


# -- configuration -----------------------------------------------------------


class ExperimentConfig(NamedTuple):
    surface: str = "octagon"
    group: str = "octagon_lattice"
    depth: int = 6
    max_length: float = 3.0
    max_trace: float = 40.0
    seed: int = 1
    step: float = 0.05
    out: str = "out"

    def validate(self) -> None:
        for name, default in self._field_defaults.items():
            value, kind = getattr(self, name), type(default)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[kind]):
                raise ValueError(
                    f"{name.replace('_', '-')} must be of type {kind.__name__}, "
                    f"not {type(value).__name__}"
                )
        if self.depth <= 0:
            raise ValueError("depth must be positive")
        for name in ("max_length", "max_trace", "step"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(
                    f"{name.replace('_', '-')} must be positive and finite"
                )
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def _suggest(name: str, options) -> str:
    import difflib  # only this error needs it; a run does not pay its import

    close = difflib.get_close_matches(name, options, n=1)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    return f"unknown catalog id {name!r}{hint}"


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _write(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _resolve(name: str, names, load, parse):
    """A catalog entry by id, or one parsed from a JSON file of the same shape."""
    if name in names:
        return load(name)
    p = Path(name)
    if p.suffix == ".json" and p.exists():
        return parse(_read_json(p), p.stem)
    raise UnknownCatalogId(_suggest(name, names))


def _build_pipeline(cfg: ExperimentConfig):
    surface = _resolve(
        cfg.surface,
        catalog.surface_names(),
        catalog.load_catalog_surface,
        catalog.parse_surface,
    )
    preset = _resolve(
        cfg.group,
        catalog.group_names(),
        catalog.load_group_preset,
        catalog.parse_group,
    )
    if preset.get("surface") and preset["surface"] != surface.name:
        raise ValueError(
            f"group {preset.get('name', cfg.group)!r} is defined on surface "
            f"{preset['surface']!r}, not {surface.name!r}"
        )
    # the word budget and then the basis are checked before the run pays
    # for its own enumeration; a cutoff up to the check's is served by the
    # check's enumeration, since restricting an enumeration to a smaller
    # cutoff gives that cutoff's
    check_word_budget(len(preset["words"]), cfg.depth)
    checked = enumerate_saddle_connections(surface, VERIFY_LENGTH)
    gdata = build_group_data(checked, preset["basis"], preset["words"], depth=cfg.depth)
    saddles = (
        tuple(sc for sc in checked if abs(sc.holonomy) <= cfg.max_length + TOL_VERTEX)
        if cfg.max_length <= VERIFY_LENGTH
        else enumerate_saddle_connections(surface, cfg.max_length)
    )
    family = build_horoball_family(gdata, saddles)
    return surface, gdata, saddles, family


# -- invariant suites --------------------------------------------------------


def _suite_gauss_bonnet(surface) -> dict:
    total = sum(cc.angle - 2 * math.pi for cc in surface.cone_classes)
    expected = 2 * math.pi * (2 * surface.genus - 2)
    return {
        "passed": abs(total - expected) < 1e-9,
        "angleExcess": total,
        "expected": expected,
    }


def _suite_classification(family) -> dict:
    balls = sum(1 for r in family.values() if r.kind == "ball")
    points = sum(1 for r in family.values() if r.kind == "point")
    witnessed = all(
        (r.kind == "ball") == (r.witness is not None) for r in family.values()
    )
    return {
        "passed": witnessed and balls + points == len(family),
        "balls": balls,
        "points": points,
    }


def _suite_cylinders(graphs) -> dict:
    failures, decomps = 0, []
    for key in sorted(graphs):
        decomp = graphs[key]
        if isinstance(decomp, FlatBundleError):  # NoClosureFound or NoCylinders
            failures += 1
            continue
        decomps.append(decomp)
    return {
        "passed": failures == 0,
        "directionsChecked": len(graphs),
        "areaViolationsOrUnclosed": failures,
    }, decomps


def _random_path(surface, saddles, family, rng):
    a, b = rng.choice(saddles), rng.choice(saddles)
    x = FiberPoint(0j, a.start)
    y = FiberPoint(
        complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)), b.end
    )
    return build_preferred_path(x, y, family, tighten_chain(surface, [a, b]))


def _suite_lipschitz(surface, saddles, family, rng, count):
    first_path = None

    def draw():
        nonlocal first_path
        path = _random_path(surface, saddles, family, rng)
        collapsed = collapsed_length(path, family)
        first_path = first_path or path
        return path.d_length - collapsed

    gaps, attempts, rejected = draw_until(
        draw, count, count * 40 if saddles else 0, "noPath"
    )
    violations = sum(1 for gap in gaps if gap < -1e-12)
    return {
        "passed": bool(gaps) and violations == 0,
        "paths": len(gaps),
        "violations": violations,
        "minMargin": min(gaps) if gaps else None,
        "attempts": attempts,
        "rejected": rejected,
    }, first_path


def _suite_structure(surface, pairs, rng, count) -> dict:
    fans, attempts, rejected = draw_until(
        lambda: random_fan(surface, pairs, rng),
        count, count * 60 if pairs else 0, "noFan",
    )
    failures = sum(1 for fan in fans if not check_structure_lemma(fan).ok)
    return {
        "passed": bool(fans) and failures == 0,
        "fans": len(fans),
        "failures": failures,
        "attempts": attempts,
        "rejected": rejected,
    }, fans[-1] if fans else None


def _suite_slimness(surface, family, pairs, seed, step, count):
    report = slimness.slimness_sweep(
        surface, family, pairs, count=count, seed=seed, step=step
    )
    full, second = slimness.stability_split(report)
    return {
        "passed": report.samples > 0
        and math.isfinite(report.delta_max)
        and second <= full + 1e-12,
        "triangles": report.samples,
        "deltaMax": report.delta_max,
        "deltaSecondHalf": second,
        "quantiles": report.delta_quantiles,
        "attempts": report.attempts,
        "rejected": report.rejected,
    }, report


def _surrogate_distance(family, key1, key2) -> float:
    a1, a2 = family[key1].anchor, family[key2].anchor
    d = hyp_distance(a1, a2)
    for ball in family_balls(family):
        d = min(d, ball.distance_to_point(a1) + ball.distance_to_point(a2))
    return d


def _suite_ratio(family, rng, count) -> dict:
    keys, adjacency = sorted(family), family_adjacency(family)

    def draw():
        k1, k2 = rng.choice(keys), rng.choice(keys)
        if k1 == k2:
            return None
        dist = max(_surrogate_distance(family, k1, k2), 0.1)
        return combinatorial_path(family, k1, k2, adjacency).length / dist

    ratios, attempts, rejected = draw_until(
        draw, count, count if len(keys) >= 2 else 0, "sameDirection"
    )
    return {
        "passed": bool(ratios) and all(math.isfinite(r) for r in ratios),
        "pairs": len(ratios),
        "maxRatio": max(ratios) if ratios else None,
        "attempts": attempts,
        "rejected": rejected,
    }


# -- commands ----------------------------------------------------------------


def cmd_catalog(args) -> int:
    listing = catalog.describe()
    if args.json:
        print(json.dumps(listing, indent=2, sort_keys=True))
        return 0
    print("surfaces:")
    for name, info in listing["surfaces"].items():
        print(f"  {name}: {info['description']} (genus {info['genus']})")
    print("groups:")
    for name, info in listing["groups"].items():
        print(f"  {name} [{info['kind']}, on {info['surface']}]: {info['description']}")
    return 0


def run_experiment(cfg: ExperimentConfig) -> dict:
    """The full pipeline; returns the report dictionary."""
    cfg.validate()
    surface, gdata, saddles, family = _build_pipeline(cfg)
    rng = random.Random(cfg.seed)
    graphs = build_direction_graphs(surface, family, max_trace=cfg.max_trace)
    pairs = reverse_pairs(surface, saddles)  # the fan and triangle draws' table

    suites: dict = {}
    suites["gaussBonnet"] = _suite_gauss_bonnet(surface)
    suites["classification"] = _suite_classification(family)
    suites["cylinderArea"], decomps = _suite_cylinders(graphs)
    suites["lipschitzCollapse"], first_path = _suite_lipschitz(
        surface, saddles, family, rng, _COUNTS["paths"]
    )
    suites["structureLemma"], last_fan = _suite_structure(
        surface, pairs, rng, _COUNTS["fans"]
    )
    suites["slimness"], slim_report = _suite_slimness(
        surface, family, pairs, rng.randrange(2**31), cfg.step,
        _COUNTS["slim_triangles"],
    )
    suites["combinatorialRatio"] = _suite_ratio(
        family, rng, _COUNTS["ratio_pairs"]
    )

    report = {
        "config": cfg._asdict(),
        "surface": {
            "name": surface.name,
            "genus": surface.genus,
            "area": surface.area,
            "saddleConnections": len(saddles),
        },
        "suites": suites,
        "passed": all(s["passed"] for s in suites.values()),
    }

    out = Path(cfg.out)
    _write(out / "report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    rows = ["triangle,delta"]
    rows += [f"{desc},{val!r}" for desc, val in slim_report.per_triangle]
    _write(out / "deltas.csv", "\n".join(rows) + "\n")

    _write(out / "horoballs.svg", render.render_horoballs(gdata, family))
    if decomps:
        _write(out / "cylinders.svg", render.render_cylinders(surface, decomps[0]))
    if last_fan is not None:
        _write(out / "ideal-fan.svg", render.render_ideal_fan(last_fan))
    if first_path is not None:
        _write(out / "path.svg", render.render_path(first_path))
    return report


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    report = run_experiment(cfg)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for name, suite in report["suites"].items():
            print(f"{name}: {'pass' if suite['passed'] else 'FAIL'}")
        print(f"report written to {cfg.out}/report.json")
    if not report["passed"]:
        failing = next(
            n for n, s in report["suites"].items() if not s["passed"]
        )
        print(f"first failing suite: {failing}", file=sys.stderr)
        return 1
    return 0


_RENDER_DRAWS = 2000


def _first_draw(kind: str, saddles, draw, none_reason: str):
    """The first value ``draw()`` returns, or None after ``_RENDER_DRAWS``
    draws (none without saddles); one stderr line gives the draws made and
    the rejections, counted as ``draw_until`` counts them."""
    found, attempts, rejected = draw_until(
        draw, 1, _RENDER_DRAWS if saddles else 0, none_reason
    )
    print(
        f"{kind} draws: {attempts} attempts, rejected {json.dumps(rejected)}",
        file=sys.stderr,
    )
    return found[0] if found else None


def cmd_render(args) -> int:
    cfg = _config_from_args(args)
    cfg.validate()
    surface, gdata, saddles, family = _build_pipeline(cfg)
    rng = random.Random(cfg.seed)
    if args.kind == "horoballs":
        svg = render.render_horoballs(gdata, family)
    elif args.kind == "cylinders":
        # the picture run writes to cylinders.svg
        graphs = build_direction_graphs(surface, family, max_trace=cfg.max_trace)
        if not graphs:
            raise MissingInput("no parabolic direction to decompose")
        _suite, decomps = _suite_cylinders(graphs)
        if not decomps:
            raise MissingInput("no direction decomposed within max-trace")
        svg = render.render_cylinders(surface, decomps[0])
    elif args.kind == "ideal-fan":
        pairs = reverse_pairs(surface, saddles)
        fan = _first_draw(
            "ideal-fan", saddles, lambda: random_fan(surface, pairs, rng), "noFan"
        )
        if fan is None:
            raise MissingInput("no fan found at this seed and cutoff")
        svg = render.render_ideal_fan(fan)
    else:  # path, the last of argparse's choices
        path = _first_draw(
            "path", saddles, lambda: _random_path(surface, saddles, family, rng), "noPath"
        )
        if path is None:
            raise MissingInput("no preferred path found at this seed")
        svg = render.render_path(path)
    out = Path(args.out or f"{args.kind}.svg")
    _write(out, svg)
    print(f"wrote {out}")
    return 0


# -- argument parsing --------------------------------------------------------


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with ExperimentConfig fields")
    p.add_argument("--surface", help="catalog surface id or JSON file")
    p.add_argument("--group", help="catalog group id or JSON file")
    p.add_argument("--depth", type=int, help="group word depth")
    p.add_argument("--max-length", type=float, help="saddle enumeration cutoff")
    p.add_argument("--max-trace", type=float, help="separatrix trace budget")
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("--step", type=float, help="slimness discretization step")
    p.add_argument("--out", help="output directory or file")


def _config_from_args(args) -> ExperimentConfig:
    values = {}
    if getattr(args, "config", None):
        data = _read_json(Path(args.config))
        if not isinstance(data, dict):
            raise ValueError(f"config {args.config} must hold a JSON object")
        for key, value in data.items():
            field = key.replace("-", "_")
            if field not in ExperimentConfig._fields:
                raise ValueError(f"unknown config field {key!r}")
            values[field] = value
    for field in (
        "surface", "group", "depth", "max_length", "max_trace", "seed", "step",
    ):
        value = getattr(args, field, None)
        if value is not None:
            values[field] = value
    if getattr(args, "out", None):
        values["out"] = args.out
    return ExperimentConfig(**values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatbundle",
        description="Flat-surface bundle experiments over Veech-group disks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="list built-in surfaces and groups")
    p_cat.add_argument("--json", action="store_true")
    p_cat.set_defaults(func=cmd_catalog)

    p_run = sub.add_parser("run", help="run the full experiment pipeline")
    _add_config_flags(p_run)
    p_run.add_argument("--json", action="store_true", help="print the report")
    p_run.set_defaults(func=cmd_run)

    p_ren = sub.add_parser("render", help="render one SVG diagram")
    p_ren.add_argument(
        "--kind",
        required=True,
        choices=("ideal-fan", "horoballs", "cylinders", "path"),
    )
    _add_config_flags(p_ren)
    p_ren.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    """Run one command; bad input and library errors exit 2 with one line."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FlatBundleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def script_main() -> int:
    """``main`` for ``python -m flatbundle.cli`` and the ``flatbundle`` script.

    The process exits once the command returns, so every object then alive
    is moved to the collector's permanent generation, which the collections
    at interpreter shutdown do not walk.  ``main`` itself leaves the
    collector as it found it.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(script_main())
