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
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import FlatBundleError
from .hyperbolic import segment_points
from .paths import (
    FiberPoint,
    HorizontalPiece,
    build_preferred_path,
)
from .surface import tighten_chain
from .veech import family_balls, region_for

DEFAULT_STEP = 0.05
_MAX_SAMPLES_PER_PIECE = 400
MAX_ATTEMPTS_FACTOR = 60  # a sweep gives up after this many draws per triangle


# -- sampling ----------------------------------------------------------------


@dataclass
class SampleSet:
    """Vectorized discretization of one collapsed preferred path."""

    base: np.ndarray  # complex base points in the disk
    clearance: np.ndarray  # fiber travel needed to reach the base point
    sig: np.ndarray  # integer signature of the carrying piece
    s: np.ndarray  # arc position within the carrying piece
    horo: tuple  # per collapsed horoball, each sample's distance to it

    def __len__(self) -> int:
        return len(self.base)


def _canon_hol(hol: complex) -> tuple:
    r, i = round(hol.real, 9) + 0.0, round(hol.imag, 9) + 0.0
    if r < 0 or (r == 0 and i < 0):
        return (-r + 0.0, -i + 0.0, True)
    return (r, i, False)


def _round_z(z: complex) -> tuple:
    return (round(z.real, 9) + 0.0, round(z.imag, 9) + 0.0)


def _piece_count(length: float, step: float) -> int:
    return min(_MAX_SAMPLES_PER_PIECE, max(1, math.ceil(length / step)))


def sample_path(path, table: dict, balls, *, step: float = DEFAULT_STEP) -> SampleSet:
    """Discretize a preferred path at arc-length ``step`` in the collapsed model.

    ``table`` numbers the pieces by signature, shared between the paths
    compared, so identical pieces compare at arc distance.  Each sample also
    gets its distance to each of the collapsed ``balls``.
    """
    parts = []  # (base, clearance, arc position, signature) per piece
    for piece in path.pieces:
        length = piece.length
        if isinstance(piece, HorizontalPiece):
            a, b = _round_z(piece.start), _round_z(piece.end)
            g = table.setdefault(("h", min(a, b), max(a, b)), len(table))
            n = _piece_count(length, step)
            t = np.arange(n + 1) / n
            z = segment_points(piece.start, piece.end, n)
            parts.append((z, np.zeros(n + 1), (1 - t) * length if b < a else t * length, g))
            continue
        r, i2, flip = _canon_hol(piece.connection.holonomy)
        g = table.setdefault(("s", (r, i2), _round_z(piece.at_base)), len(table))
        if piece.region.kind == "ball":
            # parabolic saddle: collapses into the spine
            parts.append((np.full(1, piece.at_base), np.zeros(1), np.zeros(1), g))
            continue
        n = _piece_count(length, step)
        t = (np.arange(n + 1) / n) * length
        parts.append((
            np.full(n + 1, piece.at_base),
            np.minimum(t, length - t),
            length - t if flip else t,
            g,
        ))
    base = np.concatenate([p[0] for p in parts], dtype=complex)
    return SampleSet(
        base,
        np.concatenate([p[1] for p in parts]),
        np.concatenate([np.full(len(p[0]), p[3]) for p in parts]),
        np.concatenate([p[2] for p in parts]),
        tuple(_ball_distances(base, ball) for ball in balls),
    )


# -- collapsed sample distances ----------------------------------------------


def _ball_distances(z: np.ndarray, ball) -> np.ndarray:
    # vectorized Horoball.distance_to_point
    bus = np.log((1.0 - np.abs(z) ** 2) / np.abs(ball.base - z) ** 2)
    return np.maximum(0.0, ball.level - bus)


def _rho_matrix(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    # vectorized hyp_distance
    s1, s2 = np.sqrt(1.0 - np.abs(z1) ** 2), np.sqrt(1.0 - np.abs(z2) ** 2)
    return 2.0 * np.arcsinh(np.abs(z1[:, None] - z2[None, :]) / (s1[:, None] * s2[None, :]))


def sample_distance_matrix(a: SampleSet, b: SampleSet) -> np.ndarray:
    """Collapsed surrogate distances between two sample sets.

    Base travel is the cheaper of the direct hyperbolic distance and a chain
    through a single collapsed horoball; fiber clearances are added, except
    between samples of the same piece, which meet at their arc distance.
    Every step is symmetric in ``a`` and ``b``, so swapping them gives the
    transpose exactly.
    """
    d = _rho_matrix(a.base, b.base)
    for da, db in zip(a.horo, b.horo):
        np.minimum(d, da[:, None] + db[None, :], out=d)
    d += a.clearance[:, None] + b.clearance[None, :]
    same = a.sig[:, None] == b.sig[None, :]
    if same.any():
        arc = np.abs(a.s[:, None] - b.s[None, :])
        d = np.where(same, np.minimum(d, arc), d)
    return d


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

    ``chains`` holds the flat chains for the sides (x,y), (y,z), (x,z), each
    a list of saddle connections or an already tightened FlatGeodesic.
    Returns the max over sides of the max sample distance to the union of the
    other two sides.  One distance matrix per unordered pair of sides gives
    both directions: its row minima for side ``i`` against side ``j`` and its
    column minima for ``j`` against ``i``.
    """
    cxy, cyz, cxz = chains
    paths = (
        build_preferred_path(surface, x, y, family, cxy),
        build_preferred_path(surface, y, z, family, cyz),
        build_preferred_path(surface, x, z, family, cxz),
    )
    table: dict = {}
    balls = family_balls(family)
    sides = [sample_path(p, table, balls, step=step) for p in paths]
    near = {}
    for i, j in ((0, 1), (0, 2), (1, 2)):
        d = sample_distance_matrix(sides[i], sides[j])
        near[i, j], near[j, i] = d.min(axis=1), d.min(axis=0)
    return max(
        float(np.minimum(near[i, j], near[i, k]).max())
        for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1))
    )


# -- sweep harness -----------------------------------------------------------


@dataclass
class SlimnessReport:
    """Deterministic summary of a randomized slimness sweep."""

    samples: int
    delta_max: float
    delta_quantiles: dict
    per_triangle: tuple
    attempts: int  # random draws made
    rejected: dict  # draws dropped, counted by reason


def _quantiles(values) -> dict:
    if not values:
        return {}
    arr = np.asarray(values, dtype=float)
    qs = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)
    return {f"q{int(100 * q):02d}": float(np.quantile(arr, q)) for q in qs}


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
    pool += [sc.reverse(surface) for sc in saddles if surface.class_of(sc.end) is cls]
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
) -> SlimnessReport:
    """Measure slimness over randomized preferred-path triangles."""
    rng = random.Random(seed)
    deltas, descs = [], []
    rejected: Counter = Counter()
    attempts = 0
    while len(deltas) < count and attempts < count * MAX_ATTEMPTS_FACTOR:
        attempts += 1
        tri = random_triangle_chains(surface, saddles, rng)
        if tri is None:
            rejected["noTriangle"] += 1
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
                surface, family, x, y, z, ([a], [b], third), step=step
            )
        except FlatBundleError as exc:
            rejected[type(exc).__name__] += 1
            continue
        deltas.append(delta)
        descs.append(_short_key(a) + "+" + _short_key(b))
    return SlimnessReport(
        samples=len(deltas),
        delta_max=max(deltas) if deltas else 0.0,
        delta_quantiles=_quantiles(deltas),
        per_triangle=tuple(zip(descs, deltas)),
        attempts=attempts,
        rejected=dict(sorted(rejected.items())),
    )


def stability_split(report: SlimnessReport) -> tuple[float, float]:
    """(full-sweep delta max, second-half delta max) for trend checks."""
    values = [v for _, v in report.per_triangle]
    if not values:
        return 0.0, 0.0
    half = values[len(values) // 2 :]
    return max(values), max(half) if half else 0.0
