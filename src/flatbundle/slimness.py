"""Empirical slimness measurements on collapsed preferred-path triangles.

Paths are discretized into samples carrying a base point in the disk and a
fiber clearance; distances between samples use a single-chain collapsed
surrogate: either the direct hyperbolic base distance or a shortcut through
one collapsed horoball, plus the fiber clearances.  The surrogate upper-bounds
the collapsed metric, so measured slimness constants are conservative.

The nearest sample of another path is found without comparing every pair:
the distance from a point to the samples of a geodesic segment is convex
along it, so the samples next to the point's foot are the only candidates,
and the samples of a saddle piece share one base point.

The farthest sample of a side is found piece by piece, and three rules keep
most samples unmeasured without changing the maximum (Shubert's bound, "A
sequential method seeking the global maximum of a function", 1972, for b):

(a) a piece whose signature the other sides hold is skipped: the signature
    table gives every piece under one signature the same length, so the
    samples sit at the same arc positions, each at arc distance 0.0 from
    the other sides, and the running maximum is >= 0;
(b) along a horizontal piece a sample's distance, its base travel, is
    1-Lipschitz in arc position, so between two measured samples ``lo`` and
    ``hi`` at spacing ``h`` no sample exceeds
    ``(v_lo + v_hi + (hi - lo) h) / 2``; a stretch is split at its middle
    sample only while that bound is at least the running maximum less
    ``LIPSCHITZ_SLACK``, which covers the rounding of the distances;
(c) a horizontal piece keeps only its closed-form frame, a
    ``hyperbolic.Segment``, which computes sample k when a query first
    reads it (``render.render_path`` draws a piece from the same points); a
    nearest-sample or horoball query reads two samples of a piece, and a
    side's least distance to each ball is found only when a query needs it.
    A saddle piece keeps only its largest fiber clearance, the only one
    that can be farthest.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .errors import FlatBundleError
from .hyperbolic import Segment, _ball_distance
from .paths import (
    FiberPoint,
    HorizontalPiece,
    build_preferred_path,
    draw_until,
)
from .surface import FlatGeodesic, tighten_chain
from .veech import family_balls, region_for

DEFAULT_STEP = 0.05
_MAX_SAMPLES_PER_PIECE = 400
MAX_ATTEMPTS_FACTOR = 60  # a sweep gives up after this many draws per triangle
_QUANTILES = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)
# float slack of rule (b): a stretch of samples is skipped only when its
# Lipschitz bound is below the running maximum by more than this
LIPSCHITZ_SLACK = 1e-9


# -- sampling ----------------------------------------------------------------


def _scale(z: complex) -> float:
    # hyp_distance(z, q) is 2 asinh(|z - q| / (_scale(z) _scale(q)))
    return math.sqrt(1.0 - abs(z) ** 2)


class SampleSet(NamedTuple):
    """Discretization of one collapsed preferred path, indexed for
    nearest-sample queries."""

    runs: list  # (base, scale, sig, largest clearance) per piece whose
    # samples share a base: saddle pieces and zero-length horizontals
    lines: list  # (Segment, sig, spacing) per other horizontal piece
    points: list  # (base, scale) of each run
    sigs: set  # signatures of the pieces
    horo: list  # per collapsed ball, the least distance of a sample to it,
    # filled by the first query that needs it


def _canon_hol(hol: complex) -> tuple:
    r, i = round(hol.real, 9) + 0.0, round(hol.imag, 9) + 0.0
    if r < 0 or (r == 0 and i < 0):
        return (-r + 0.0, -i + 0.0)
    return (r, i)


def _round_z(z: complex) -> tuple:
    return (round(z.real, 9) + 0.0, round(z.imag, 9) + 0.0)


def _piece_count(length: float, step: float) -> int:
    return min(_MAX_SAMPLES_PER_PIECE, max(1, math.ceil(length / step)))


def sample_path(path, table: dict, *, step: float = DEFAULT_STEP) -> SampleSet:
    """Discretize a preferred path at arc-length ``step`` in the collapsed model.

    ``table`` numbers the pieces by signature, shared between the paths
    compared, so identical pieces are known as one.  It keeps the length
    first seen under each signature: a piece met again, in either direction
    or as another record that differs only in the last bits of its
    holonomy, gets the same samples at the same arc positions.
    """
    runs, lines, sigs = [], [], set()
    for piece in path.pieces:
        if isinstance(piece, HorizontalPiece):
            a, b = _round_z(piece.start), _round_z(piece.end)
            g, length = table.setdefault(
                ("h", min(a, b), max(a, b)), (len(table), piece.length)
            )
            n = _piece_count(length, step)
            z1 = piece.start
            seg = Segment(z1, piece.end, n)
            if seg.point(n)[0] == z1:  # every sample sits at z1: a run
                runs.append((z1, _scale(z1), g, 0.0))
            else:
                lines.append((seg, g, length / n))
        else:
            g, length = table.setdefault(
                ("s", _canon_hol(piece.connection.holonomy), _round_z(piece.at_base)),
                (len(table), piece.length),
            )
            c_max = 0.0  # a parabolic saddle collapses into the spine
            if piece.region.kind != "ball":
                # sample k has clearance min(t, length - t), t = (k / n) length,
                # which rises up to the middle and falls after it, also in floats
                n = _piece_count(length, step)
                c_max = max(
                    min(t, length - t)
                    for t in ((n // 2 / n) * length, ((n + 1) // 2 / n) * length)
                )
            runs.append((piece.at_base, _scale(piece.at_base), g, c_max))
        sigs.add(g)
    return SampleSet(runs, lines, [(z, sz) for z, sz, _, _ in runs], sigs, [])


# -- collapsed sample distances ----------------------------------------------


def _union(sets: list) -> SampleSet:
    # the target of the queries: every sample of ``sets``, the runs read
    # through their points
    return SampleSet(
        [],
        [line for t in sets for line in t.lines],
        list(dict.fromkeys(q for t in sets for q in t.points)),
        set().union(*(t.sigs for t in sets)),
        [],
    )


def _horo(target: SampleSet, balls) -> list:
    """``target.horo``, computed on the first call: the least distance of
    a sample to each ball, read at the bases of the runs and at the deepest
    samples of each line."""
    if len(target.horo) < len(balls):
        target.horo[:] = [
            min(
                _ball_distance(z, ball)
                for z, _ in target.points
                + [q for seg, _, _ in target.lines for q in seg.deepest(ball.base)]
            )
            for ball in balls
        ]
    return target.horo


def _base_distance(z: complex, sz: float, target: SampleSet, balls, cap: float) -> float:
    """Least base travel from ``z`` to a sample of ``target``: the direct
    distance or a detour through one collapsed ball.  Once the running
    minimum is at most ``cap`` it is returned as it stands.

    The ball term separates: ``min_q (d(z, ball) + d(q, ball))`` is
    ``d(z, ball)`` plus the target's least distance to the ball.
    """
    best = math.inf
    for q, sq in target.points:
        d = 2.0 * math.asinh(abs(z - q) / (sz * sq))
        if d < best:
            best = d
    for seg, _, _ in target.lines:
        if best <= cap:
            return best
        for q, sq in seg.nearest(z):
            d = 2.0 * math.asinh(abs(z - q) / (sz * sq))
            if d < best:
                best = d
    if best <= cap:
        return best
    for ball, m in zip(balls, _horo(target, balls)):
        if m < best:
            d = _ball_distance(z, ball) + m
            if d < best:
                best = d
    return best


def _farthest(a: SampleSet, target: SampleSet, balls, floor: float) -> float:
    """The larger of ``floor`` and the largest distance from a sample of
    ``a`` to its nearest sample of ``target``.

    Fiber clearances are added to the base travel; the nearest sample of a
    saddle piece is at one of its ends, where the clearance is 0, so the
    farthest sample of a run is its base travel plus its largest clearance
    (float addition is monotonic).  A sample already within the running
    maximum of ``target`` is not measured further, and rules (a) and (b) of
    the module skip whole pieces and stretches.
    """
    out = floor
    for z, sz, g, c_max in a.runs:
        if g in target.sigs:  # rule (a)
            continue
        # a run with no clearance is settled once its base travel is at most out
        cap = out if c_max == 0.0 else -math.inf
        out = max(out, _base_distance(z, sz, target, balls, cap) + c_max)
    for seg, g, h in a.lines:
        if g in target.sigs:  # rule (a)
            continue

        def value(k: int) -> float:
            # the distance of sample k, or an upper bound of it that is at
            # most out; out is raised to it
            nonlocal out
            z, sz = seg.point(k)
            v = _base_distance(z, sz, target, balls, out)
            out = max(out, v)
            return v

        # rule (b): branch and bound over the sample indices
        stack = [(0, seg.n, value(0), value(seg.n))]
        while stack:
            lo, hi, v_lo, v_hi = stack.pop()
            if hi - lo < 2 or (v_lo + v_hi + (hi - lo) * h) / 2 < out - LIPSCHITZ_SLACK:
                continue
            mid = (lo + hi) // 2
            v_mid = value(mid)
            stack.append((lo, mid, v_lo, v_mid))
            stack.append((mid, hi, v_mid, v_hi))
    return out


# -- triangle slimness -------------------------------------------------------


def triangle_slimness(
    family,
    x: FiberPoint,
    y: FiberPoint,
    z: FiberPoint,
    sides,
    *,
    step: float = DEFAULT_STEP,
) -> float:
    """Thinness constant of one collapsed preferred-path triangle.

    ``sides`` holds the flat geodesics of the sides (x,y), (y,z), (x,z).
    Returns the max over sides of the max sample distance to the union of the
    other two sides.
    """
    table: dict = {}
    balls = family_balls(family)
    sets = [
        sample_path(build_preferred_path(u, v, family, g), table, step=step)
        for (u, v), g in zip(((x, y), (y, z), (x, z)), sides)
    ]
    delta = 0.0
    for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        delta = _farthest(sets[i], _union([sets[j], sets[k]]), balls, delta)
    return delta


# -- sweep harness -----------------------------------------------------------


class SlimnessReport(NamedTuple):
    """Deterministic summary of a randomized slimness sweep."""

    samples: int
    delta_max: float
    delta_quantiles: dict
    per_triangle: tuple
    attempts: int  # random draws made
    rejected: dict  # draws dropped, counted by reason


def _quantiles(values) -> dict:
    """Quantiles of ``values`` by linear interpolation between the order
    statistics, computed as numpy's default ``linear`` method does."""
    if not values:
        return {}
    xs = sorted(values)
    out = {}
    for q in _QUANTILES:
        at = (len(xs) - 1) * q
        k = math.floor(at)
        lo, hi = xs[k], xs[min(k + 1, len(xs) - 1)]
        t = at - k
        diff = hi - lo
        out[f"q{int(100 * q):02d}"] = hi - diff * (1 - t) if t >= 0.5 else lo + diff * t
    return out


def _fmt4(x: float) -> str:
    s = f"{x:.4f}"
    return "0.0000" if s == "-0.0000" else s


def _short_key(sc) -> str:
    w = sc.holonomy
    return f"({sc.start.poly}.{sc.start.vertex}|{_fmt4(w.real)},{_fmt4(w.imag)})"


def class_pools(surface, pairs) -> dict:
    """The connections of ``pairs`` (a ``paths.reverse_pairs`` table) that
    leave each cone point, by its index: the forward records from it, then
    the reverses of those that end there."""
    return {
        cc.index: [sc for sc, _ in pairs if surface.class_of(sc.start) is cc]
        + [rev for sc, rev in pairs if surface.class_of(sc.end) is cc]
        for cc in surface.cone_classes
    }


def random_triangle_chains(surface, pairs, pools, rng):
    """Chains of a random preferred-path triangle drawn from ``pairs`` (a
    ``paths.reverse_pairs`` table) and its ``class_pools``, or None if not
    viable."""
    a, a_rev = rng.choice(pairs)
    if rng.random() < 0.5:
        a = a_rev
    pool = pools[surface.class_of(a.end).index]
    if not pool:
        return None
    b = rng.choice(pool)
    try:
        third = tighten_chain(surface, [a, b])
    except FlatBundleError:
        return None
    return a, b, third


def slimness_sweep(
    surface,
    family,
    pairs,
    *,
    count: int,
    seed: int,
    step: float = DEFAULT_STEP,
) -> SlimnessReport:
    """Measure slimness over randomized preferred-path triangles drawn from
    ``pairs``, a ``paths.reverse_pairs`` table."""
    rng = random.Random(seed)
    pools = class_pools(surface, pairs)

    def draw():
        tri = random_triangle_chains(surface, pairs, pools, rng)
        if tri is None:
            return None
        a, b, third = tri
        ra = region_for(family, a.direction)
        rb = region_for(family, b.direction)
        bz = (
            region_for(family, third.pieces[-1].direction).anchor
            if third.pieces
            else ra.anchor
        )
        x = FiberPoint(ra.anchor, a.start)
        y = FiberPoint(rb.anchor, a.end)
        z = FiberPoint(bz, b.end)
        sides = (FlatGeodesic((a,)), FlatGeodesic((b,)), third)
        return _short_key(a) + "+" + _short_key(b), triangle_slimness(
            family, x, y, z, sides, step=step
        )

    per_triangle, attempts, rejected = draw_until(
        draw, count, count * MAX_ATTEMPTS_FACTOR if pairs else 0, "noTriangle"
    )
    deltas = [delta for _, delta in per_triangle]
    return SlimnessReport(
        samples=len(deltas),
        delta_max=max(deltas) if deltas else 0.0,
        delta_quantiles=_quantiles(deltas),
        per_triangle=tuple(per_triangle),
        attempts=attempts,
        rejected=rejected,
    )


def stability_split(report: SlimnessReport) -> tuple[float, float]:
    """(full-sweep delta max, second-half delta max) for trend checks."""
    values = [v for _, v in report.per_triangle]
    if not values:
        return 0.0, 0.0
    half = values[len(values) // 2 :]
    return max(values), max(half) if half else 0.0
