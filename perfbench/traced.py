"""Run one ``flatbundle`` command with its layers wrapped; write per-layer stats.

Usage::

    PYTHONPATH=src python3 perfbench/traced.py STATS.json run --surface ... --out DIR

The wrappers are installed from outside the program. Every public function
defined in a layer module (``LAYERS``) is wrapped, except the scalar
primitives in ``UNWRAPPED``, and so are ``ConvexRegion.project`` and the
``VeechGroupData.basepoint`` property. Each wrapper is rebound at every
``flatbundle`` module that imported the function by name, so calls made
through ``from .surface import tighten_chain`` are seen too.

For each wrapped name the stats file holds: calls; busy time (outermost
activations only, so recursion is not counted twice); self time (busy time
minus the time of wrapped calls nested inside); per-call median and, from
200 calls on, 95th percentile; exceptions raised, by class; and library
errors returned as values (``trace_direction`` returns ``NoClosureFound``).
The command's exit code is this script's exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("surface", "hyperbolic", "veech", "cylinders", "paths", "slimness", "render")
METHODS = (
    ("hyperbolic", "ConvexRegion", "project"),
    ("veech", "VeechGroupData", "basepoint"),
)
# Scalar geometry helpers called 10^4 to 10^6 times per run. A timing
# wrapper on each would roughly double the run and bury the self time of the
# layers that call them, so their time stays in their callers' self time.
UNWRAPPED = frozenset({
    "surface.cross",
    "surface.ccw_angle",
    "surface.seg_point_dist",
    "hyperbolic.disk_from_uhp",
    "hyperbolic.uhp_from_disk",
    "hyperbolic.busemann",
    "hyperbolic.hyp_distance",
    "hyperbolic.ideal_endpoints",
    "hyperbolic.saddle_length_at_uhp",
    "hyperbolic.segment_point",
})
P95_MIN_CALLS = 200


class Layer:
    """Counters of one wrapped function."""

    def __init__(self) -> None:
        self.calls = 0
        self.active = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.times: list[float] = []
        self.raised: Counter = Counter()
        self.returned: Counter = Counter()

    def summary(self) -> dict:
        out = {
            "calls": self.calls,
            "busy_s": self.busy,
            "self_s": self.self_time,
            "median_ms": 1e3 * statistics.median(self.times) if self.times else 0.0,
            "failed": sum(self.raised.values()),
            "raised": dict(sorted(self.raised.items())),
            "returned": dict(sorted(self.returned.items())),
        }
        if self.calls >= P95_MIN_CALLS:
            out["p95_ms"] = 1e3 * statistics.quantiles(self.times, n=20)[-1]
        return out


class Tracer:
    """Wraps callables and keeps the stack of active wrapped calls."""

    def __init__(self, error_base: type) -> None:
        self.error_base = error_base
        self.layers: dict[str, Layer] = {}
        self._nested: list[float] = []  # wrapped-callee time of each active call

    def wrap(self, name: str, fn):
        layer = self.layers.setdefault(name, Layer())
        nested, error_base = self._nested, self.error_base

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            layer.calls += 1
            layer.active += 1
            nested.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                layer.raised[type(exc).__name__] += 1
                raise
            finally:
                dt = perf_counter() - t0
                inner = nested.pop()
                layer.active -= 1
                if nested:
                    nested[-1] += dt
                layer.times.append(dt)
                layer.self_time += dt - inner
                if not layer.active:
                    layer.busy += dt
            if isinstance(result, error_base):
                layer.returned[type(result).__name__] += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap the layer functions and methods; call after importing flatbundle.cli."""
        replacements = {}
        for short in LAYERS:
            mod = importlib.import_module(f"flatbundle.{short}")
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNWRAPPED
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                replacements[id(obj)] = (obj, self.wrap(name, obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "flatbundle" and not modname.startswith("flatbundle."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        for short, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"flatbundle.{short}"), cls_name)
            name = f"{short}.{cls_name}.{attr}"
            member = inspect.getattr_static(cls, attr)
            if isinstance(member, property):
                setattr(cls, attr, property(self.wrap(name, member.fget)))
            else:
                setattr(cls, attr, self.wrap(name, member))

    def summary(self) -> dict:
        return {name: layer.summary() for name, layer in sorted(self.layers.items())}


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    stats_path, command = argv[0], argv[1:]
    import flatbundle.cli as cli
    from flatbundle.errors import FlatBundleError

    tracer = Tracer(FlatBundleError)
    tracer.install()
    code = cli.main(command)
    with open(stats_path, "w") as f:
        json.dump(tracer.summary(), f, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
