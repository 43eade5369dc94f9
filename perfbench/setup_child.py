"""Time the set-up of one ``flatbundle run`` configuration in a fresh process.

Usage::

    PYTHONPATH=src python3 perfbench/setup_child.py SURFACE GROUP MAX_LENGTH DEPTH MAX_TRACE

The clock starts before ``import flatbundle`` and stops when the set-up
that ``flatbundle run`` does before sampling has returned: the CLI's own
``_build_pipeline`` (catalog surface and group-preset load, the
preset/surface check, ``build_group_data``, ``enumerate_saddle_connections``
and ``build_horoball_family``) and then ``build_direction_graphs``, as
``run_experiment`` calls them. Prints one JSON line with the time and the
set-up's outputs, which the benchmark checks against the run's report.
"""

from time import perf_counter

_t0 = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from flatbundle.cli import ExperimentConfig, _build_pipeline  # noqa: E402
from flatbundle.paths import build_direction_graphs  # noqa: E402


def main(argv: list[str]) -> int:
    cfg = ExperimentConfig(
        surface=argv[0],
        group=argv[1],
        max_length=float(argv[2]),
        depth=int(argv[3]),
        max_trace=float(argv[4]),
    )
    cfg.validate()
    surface, _, saddles, family = _build_pipeline(cfg)
    graphs = build_direction_graphs(surface, family, max_trace=cfg.max_trace)
    elapsed = perf_counter() - _t0
    kinds = [r.kind for r in family.values()]
    print(json.dumps({
        "setup_s": elapsed,
        "saddleConnections": len(saddles),
        "balls": kinds.count("ball"),
        "points": kinds.count("point"),
        "graphs": len(graphs),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
