"""Empirical slimness measurements on collapsed preferred-path triangles.

Paths are discretized into samples carrying a base point in the disk and a
fiber clearance; distances between samples use a single-chain collapsed
surrogate: either the direct hyperbolic base distance or a shortcut through
one collapsed horoball, plus the fiber clearances.  The surrogate upper-bounds
the collapsed metric, so measured slimness constants are conservative.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import FlatBundleError
from .hyperbolic import segment_point
from .paths import (
    FiberPoint,
    HorizontalPiece,
    SaddlePiece,
    build_preferred_path,
    random_fan,
    spans_triangle,
)
from .surface import tighten_chain
from .veech import region_for

DEFAULT_STEP = 0.05
_MAX_SAMPLES_PER_PIECE = 400


# -- sampling ----------------------------------------------------------------


@dataclass
class SampleSet:
    """Vectorized discretization of one collapsed preferred path."""

    base: np.ndarray  # complex base points in the disk
    clearance: np.ndarray  # fiber travel needed to reach the base point
    sig: np.ndarray  # integer signature of the carrying piece
    s: np.ndarray  # arc position within the carrying piece

    def __len__(self) -> int:
        return len(self.base)


def _canon_hol(hol: complex) -> tuple:
    r, i = round(hol.real, 9) + 0.0, round(hol.imag, 9) + 0.0
    if r < 0 or (r == 0 and i < 0):
        return (-r + 0.0, -i + 0.0, True)
    return (r, i, False)


def _round_z(z: complex) -> tuple:
    return (round(z.real, 9) + 0.0, round(z.imag, 9) + 0.0)


class _SigTable:
    """Shared piece signatures so identical pieces compare at arc distance."""

    def __init__(self):
        self._ids: dict = {}

    def sig_of(self, key) -> int:
        return self._ids.setdefault(key, len(self._ids))


def sample_path(path, table: _SigTable, *, step: float = DEFAULT_STEP) -> SampleSet:
    """Discretize a preferred path at arc-length ``step`` in the collapsed model."""
    base, clearance, sig, s = [], [], [], []

    def put(z, c, g, t):
        base.append(z)
        clearance.append(c)
        sig.append(g)
        s.append(t)

    for piece in path.pieces:
        if isinstance(piece, HorizontalPiece):
            length = piece.length
            a, b = _round_z(piece.start), _round_z(piece.end)
            flip = b < a
            g = table.sig_of(("h", min(a, b), max(a, b)))
            n = min(_MAX_SAMPLES_PER_PIECE, max(1, math.ceil(length / step)))
            for i in range(n + 1):
                t = i / n
                z = piece.start if length == 0 else segment_point(
                    piece.start, piece.end, t * length
                )
                put(z, 0.0, g, (1 - t) * length if flip else t * length)
        else:
            length = piece.length
            r, i2, flip = _canon_hol(piece.connection.holonomy)
            g = table.sig_of(("s", (r, i2), _round_z(piece.at_base)))
            if piece.region.kind == "ball":
                # parabolic saddle: collapses into the spine
                put(piece.at_base, 0.0, g, 0.0)
                continue
            n = min(_MAX_SAMPLES_PER_PIECE, max(1, math.ceil(length / step)))
            for i in range(n + 1):
                t = (i / n) * length
                c = min(t, length - t)
                put(piece.at_base, c, g, length - t if flip else t)

    return SampleSet(
        np.asarray(base, dtype=complex),
        np.asarray(clearance, dtype=float),
        np.asarray(sig, dtype=int),
        np.asarray(s, dtype=float),
    )


# -- collapsed sample distances ----------------------------------------------


def _family_balls(family) -> list:
    seen, balls = set(), []
    for reg in family.values():
        if reg.kind == "ball" and reg.ball is not None:
            key = (_round_z(reg.ball.base), round(reg.ball.level, 9))
            if key not in seen:
                seen.add(key)
                balls.append(reg.ball)
    return balls


def _ball_distances(z: np.ndarray, ball) -> np.ndarray:
    # vectorized Horoball.distance_to_point
    bus = np.log((1.0 - np.abs(z) ** 2) / np.abs(ball.base - z) ** 2)
    return np.maximum(0.0, ball.level - bus)


def _rho_matrix(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    num = 2.0 * np.abs(z1[:, None] - z2[None, :]) ** 2
    den = (1.0 - np.abs(z1) ** 2)[:, None] * (1.0 - np.abs(z2) ** 2)[None, :]
    return np.arccosh(1.0 + num / den)


def sample_distance_matrix(a: SampleSet, b: SampleSet, balls) -> np.ndarray:
    """Collapsed surrogate distances between two sample sets.

    Base travel is the cheaper of the direct hyperbolic distance and a chain
    through a single collapsed horoball; fiber clearances are added, except
    between samples of the same piece, which meet at their arc distance.
    """
    d = _rho_matrix(a.base, b.base)
    for ball in balls:
        da, db = _ball_distances(a.base, ball), _ball_distances(b.base, ball)
        np.minimum(d, da[:, None] + db[None, :], out=d)
    d += a.clearance[:, None] + b.clearance[None, :]
    same = a.sig[:, None] == b.sig[None, :]
    if same.any():
        arc = np.abs(a.s[:, None] - b.s[None, :])
        d = np.where(same, np.minimum(d, arc), d)
    return d


def one_sided_distance(a: SampleSet, targets, balls) -> float:
    """max over samples of ``a`` of the distance to the union of targets."""
    if not len(a):
        return 0.0
    best = np.full(len(a), np.inf)
    for t in targets:
        if not len(t):
            continue
        np.minimum(best, sample_distance_matrix(a, t, balls).min(axis=1), out=best)
    return float(best.max())


# -- triangle slimness -------------------------------------------------------


def triangle_slimness(
    surface,
    family,
    x: FiberPoint,
    y: FiberPoint,
    z: FiberPoint,
    chains,
    *,
    step: float = DEFAULT_STEP,
) -> float:
    """Thinness constant of one collapsed preferred-path triangle.

    ``chains`` holds the flat chains for the sides (x,y), (y,z), (x,z).
    Returns the max over sides of the max sample distance to the union of the
    other two sides.
    """
    cxy, cyz, cxz = chains
    paths = (
        build_preferred_path(surface, x, y, family, cxy),
        build_preferred_path(surface, y, z, family, cyz),
        build_preferred_path(surface, x, z, family, cxz),
    )
    table = _SigTable()
    sides = [sample_path(p, table, step=step) for p in paths]
    balls = _family_balls(family)
    return max(
        one_sided_distance(sides[i], [sides[j] for j in range(3) if j != i], balls)
        for i in range(3)
    )


def euclidean_triangle_slimness(a: complex, b: complex, c: complex, *, step: float = DEFAULT_STEP) -> float:
    """Thinness of a flat triangle, sampled sides against exact segments."""

    def seg_dist(p, u, v):
        w = v - u
        t = 0.0 if w == 0 else max(0.0, min(1.0, ((p - u) / w).real))
        return abs(p - (u + t * w))

    delta = 0.0
    for u, v, p1, q1, p2, q2 in (
        (a, b, a, c, c, b),
        (b, c, b, a, a, c),
        (a, c, a, b, b, c),
    ):
        n = max(1, math.ceil(abs(v - u) / step))
        for i in range(n + 1):
            p = u + (v - u) * i / n
            delta = max(delta, min(seg_dist(p, p1, q1), seg_dist(p, p2, q2)))
    return delta


# -- fan lemma ---------------------------------------------------------------


def fan_lemma_check(
    surface, fan, family, *, step: float = DEFAULT_STEP
) -> tuple[float, bool]:
    """Slimness of a fan's triangle, plus the stronger containment check.

    The returned constant makes both the slimness claim and, when the two
    single sides cut out balls and span a triangle, the containment of both
    single-side paths in a neighborhood of the bottom path true.  The boolean
    reports that the containment was verified (vacuously when inapplicable).
    """
    top0, topk = fan.top_start, fan.top_end
    reg0 = region_for(family, top0.direction)
    regk = region_for(family, topk.direction)
    regb = region_for(family, fan.bottom[0].direction)
    apex = FiberPoint(reg0.anchor, fan.apex)
    p0 = FiberPoint(regb.anchor, top0.end)
    pk = FiberPoint(regk.anchor, topk.end)
    paths = (
        build_preferred_path(surface, apex, p0, family, [top0]),
        build_preferred_path(surface, p0, pk, family, list(fan.bottom)),
        build_preferred_path(surface, apex, pk, family, [topk]),
    )
    table = _SigTable()
    sides = [sample_path(p, table, step=step) for p in paths]
    balls = _family_balls(family)
    delta = max(
        one_sided_distance(sides[i], [sides[j] for j in range(3) if j != i], balls)
        for i in range(3)
    )
    applicable = (
        reg0.kind == "ball"
        and regk.kind == "ball"
        and spans_triangle(surface, top0, topk)
    )
    if applicable:
        contain = max(
            one_sided_distance(sides[0], [sides[1]], balls),
            one_sided_distance(sides[2], [sides[1]], balls),
        )
        delta = max(delta, contain)
        return delta, math.isfinite(contain)
    return delta, True


# -- four-point hyperbolicity ------------------------------------------------


def gromov_four_point(points, dist_oracle) -> float:
    """Minimal four-point hyperbolicity constant of a finite sample.

    Exact over all ordered 4-tuples; the sample is capped at 60 points.
    """
    n = len(points)
    if n < 4:
        raise ValueError("need at least 4 points")
    if n > 60:
        raise ValueError("sample capped at 60 points")
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = float(dist_oracle(points[i], points[j]))
    delta = 0.0
    for w in range(n):
        g = 0.5 * (d[w][:, None] + d[w][None, :] - d)
        t = np.minimum(g[:, None, :], g[None, :, :]).max(axis=-1)
        delta = max(delta, float((t - g).max()))
    return max(0.0, delta)


# -- sweep harness -----------------------------------------------------------


@dataclass
class SlimnessReport:
    """Deterministic summary of a randomized slimness sweep."""

    samples: int
    delta_max: float
    delta_quantiles: dict
    per_triangle: tuple
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "deltaMax": self.delta_max,
            "deltaQuantiles": self.delta_quantiles,
            "perTriangle": [[desc, val] for desc, val in self.per_triangle],
            "config": self.config,
        }


def _quantiles(values) -> dict:
    if not values:
        return {}
    arr = np.asarray(values, dtype=float)
    qs = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)
    return {f"q{int(100 * q):02d}": float(np.quantile(arr, q)) for q in qs}


def _make_report(deltas, descs, config) -> SlimnessReport:
    return SlimnessReport(
        samples=len(deltas),
        delta_max=max(deltas) if deltas else 0.0,
        delta_quantiles=_quantiles(deltas),
        per_triangle=tuple(zip(descs, deltas)),
        config=config,
    )


def _short_key(sc) -> str:
    return f"({sc.start.poly}.{sc.start.vertex}|{sc.holonomy.real:.4f},{sc.holonomy.imag:.4f})"


def random_triangle_chains(surface, saddles, rng):
    """Chains of a random preferred-path triangle, or None if not viable."""
    if not saddles:
        return None
    a = rng.choice(saddles)
    if rng.random() < 0.5:
        a = a.reverse(surface)
    cls = surface.class_of(a.end)
    pool = [sc for sc in saddles if surface.class_of(sc.start) is cls]
    pool += [
        sc.reverse(surface)
        for sc in saddles
        if surface.class_of(sc.reverse(surface).start) is cls
    ]
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
    saddles,
    *,
    count: int,
    seed: int,
    step: float = DEFAULT_STEP,
    max_attempts_factor: int = 60,
) -> SlimnessReport:
    """Measure slimness over randomized preferred-path triangles."""
    rng = random.Random(seed)
    deltas, descs = [], []
    attempts = 0
    while len(deltas) < count and attempts < count * max_attempts_factor:
        attempts += 1
        tri = random_triangle_chains(surface, saddles, rng)
        if tri is None:
            continue
        a, b, third = tri
        try:
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
            delta = triangle_slimness(
                surface, family, x, y, z, ([a], [b], list(third.pieces)), step=step
            )
        except FlatBundleError:
            continue
        deltas.append(delta)
        descs.append(_short_key(a) + "+" + _short_key(b))
    return _make_report(
        deltas,
        descs,
        {"kind": "triangles", "seed": seed, "step": step, "requested": count},
    )


def fan_sweep(
    surface,
    family,
    saddles,
    *,
    count: int,
    seed: int,
    step: float = DEFAULT_STEP,
    max_attempts_factor: int = 60,
) -> SlimnessReport:
    """Measure the fan-lemma constant over randomized fans."""
    rng = random.Random(seed)
    deltas, descs = [], []
    furthermore_failures = 0
    attempts = 0
    while saddles and len(deltas) < count and attempts < count * max_attempts_factor:
        attempts += 1
        fan = random_fan(surface, saddles, rng)
        if fan is None:
            continue
        try:
            delta, holds = fan_lemma_check(surface, fan, family, step=step)
        except FlatBundleError:
            continue
        if not holds:
            furthermore_failures += 1
        deltas.append(delta)
        descs.append(f"k={fan.k}:" + _short_key(fan.top_start))
    report = _make_report(
        deltas,
        descs,
        {"kind": "fans", "seed": seed, "step": step, "requested": count},
    )
    report.config["furthermoreFailures"] = furthermore_failures
    return report


def stability_split(report: SlimnessReport) -> tuple[float, float]:
    """(full-sweep delta max, second-half delta max) for trend checks."""
    values = [v for _, v in report.per_triangle]
    if not values:
        return 0.0, 0.0
    half = values[len(values) // 2 :]
    return max(values), max(half) if half else 0.0
