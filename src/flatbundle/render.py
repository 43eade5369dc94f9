"""Deterministic SVG rendering: disk diagrams and cylinder decompositions.

All drawings use a fixed 1000x1000 canvas and fixed-precision coordinates so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import cmath
import math

from .hyperbolic import Geodesic, Segment, boundary_from_direction
from .paths import HorizontalPiece, SaddlePiece

CANVAS = 1000
_CENTER = CANVAS / 2
_RADIUS = 460.0

_PALETTE = ("#4878cf", "#d65f5f", "#6acc65", "#b47cc7", "#c4ad66", "#77bedb")


def _fmt(x: float) -> str:
    s = f"{x:.3f}"
    return "0.000" if s == "-0.000" else s


def _xy(z: complex) -> tuple[str, str]:
    return _fmt(_CENTER + _RADIUS * z.real), _fmt(_CENTER - _RADIUS * z.imag)


def _svg(elements) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" '
        f'height="{CANVAS}" viewBox="0 0 {CANVAS} {CANVAS}">\n'
        f'<rect width="{CANVAS}" height="{CANVAS}" fill="white"/>\n'
    )
    return head + "\n".join(elements) + "\n</svg>\n"


def _disk_boundary() -> str:
    return (
        f'<circle cx="{_fmt(_CENTER)}" cy="{_fmt(_CENTER)}" r="{_fmt(_RADIUS)}" '
        'fill="none" stroke="black" stroke-width="2"/>'
    )


def _polyline(points, stroke: str, width: float = 1.5) -> str:
    coords = " ".join(",".join(_xy(z)) for z in points)
    return (
        f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
        f'stroke-width="{_fmt(width)}"/>'
    )


def _geodesic_points(xi1: complex, xi2: complex):
    lo, hi, n = -6.0, 6.0, 64
    return Geodesic(xi1, xi2).points([lo + (hi - lo) * i / n for i in range(n + 1)])


def _dot(z: complex, r: float, fill: str) -> str:
    x, y = _xy(z)
    return f'<circle cx="{x}" cy="{y}" r="{_fmt(r)}" fill="{fill}"/>'


def render_horoballs(gdata, family) -> str:
    """Hull shading, horoballs tangent to the boundary, horopoint feet."""
    el = [_disk_boundary()]
    sample = sorted((g.start for g in gdata.hull.sides), key=cmath.phase)
    if len(sample) >= 3:
        coords = " ".join(",".join(_xy(z)) for z in sample)
        el.append(
            f'<polygon points="{coords}" fill="#cfe4f7" stroke="none" '
            'fill-opacity="0.6"/>'
        )
    for key in sorted(family):
        reg = family[key]
        if reg.kind == "ball" and reg.ball is not None:
            t = (math.exp(reg.ball.level) - 1.0) / (math.exp(reg.ball.level) + 1.0)
            center = reg.ball.base * (1.0 + t) / 2.0
            radius = _RADIUS * (1.0 - t) / 2.0
            x, y = _xy(center)
            el.append(
                f'<circle cx="{x}" cy="{y}" r="{_fmt(radius)}" fill="none" '
                'stroke="#d65f5f" stroke-width="1.5"/>'
            )
            el.append(_dot(reg.boundary_point, 3.0, "#d65f5f"))
        else:
            el.append(_dot(reg.anchor, 2.5, "#4878cf"))
    el.append(_dot(gdata.basepoint, 4.0, "black"))
    return _svg(el)


def _layout_offsets(surface):
    offsets, x = [], 0.0
    for poly in surface.polygons:
        lo = min(v.real for v in poly)
        hi = max(v.real for v in poly)
        offsets.append(complex(x - lo, 0.0))
        x += (hi - lo) + 0.6
    return offsets


def render_cylinders(surface, decomp) -> str:
    """Flat polygons laid out side by side with boundary saddles colored."""
    offsets = _layout_offsets(surface)
    pts = [
        v + offsets[p]
        for p, poly in enumerate(surface.polygons)
        for v in poly
    ]
    lo_x = min(z.real for z in pts) - 0.3
    hi_x = max(z.real for z in pts) + 0.3
    lo_y = min(z.imag for z in pts) - 0.3
    hi_y = max(z.imag for z in pts) + 0.3
    scale = (CANVAS - 40.0) / max(hi_x - lo_x, hi_y - lo_y)

    def to_xy(z: complex) -> str:
        return (
            _fmt(20.0 + scale * (z.real - lo_x))
            + ","
            + _fmt(CANVAS - 20.0 - scale * (z.imag - lo_y))
        )

    el = []
    for p, poly in enumerate(surface.polygons):
        coords = " ".join(to_xy(v + offsets[p]) for v in poly)
        el.append(
            f'<polygon points="{coords}" fill="#f2f2f2" stroke="black" '
            'stroke-width="1.5"/>'
        )
    color_of = {}
    for ci, cyl in enumerate(decomp.cylinders):
        for si, _sign in cyl.sides:
            color_of.setdefault(si, _PALETTE[ci % len(_PALETTE)])
    for si, sc in enumerate(decomp.saddles):
        z0 = surface.vertex(sc.start.poly, sc.start.vertex) + offsets[sc.start.poly]
        z1 = z0 + sc.holonomy
        color = color_of.get(si, "#888888")
        (x0, y0), (x1, y1) = to_xy(z0).split(","), to_xy(z1).split(",")
        el.append(
            f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" '
            f'stroke="{color}" stroke-width="3"/>'
        )
    return _svg(el)


def render_ideal_fan(fan) -> str:
    """The ideal triangles of a fan, drawn as geodesic arcs in the disk."""
    el = [_disk_boundary()]
    for ti, (tau_prev, sigma, tau_next) in enumerate(fan.triangles()):
        color = _PALETTE[ti % len(_PALETTE)]
        ideals = [
            boundary_from_direction(sc.direction)
            for sc in (tau_prev, sigma, tau_next)
        ]
        for a, b in ((0, 1), (1, 2), (0, 2)):
            if abs(ideals[a] - ideals[b]) < 1e-9:
                continue
            el.append(_polyline(_geodesic_points(ideals[a], ideals[b]), color))
    for sc in (fan.top_start, *fan.bottom, fan.top_end):
        el.append(_dot(boundary_from_direction(sc.direction), 3.0, "black"))
    return _svg(el)


def render_path(path) -> str:
    """Base projection of a preferred path: segments plus saddle markers."""
    el = [_disk_boundary()]
    for piece in path.pieces:
        if isinstance(piece, HorizontalPiece):
            if piece.length < 1e-12:
                continue
            seg = Segment(piece.start, piece.end, 32)
            el.append(_polyline([seg.point(k)[0] for k in range(33)], "#4878cf", 2.0))
        elif isinstance(piece, SaddlePiece):
            el.append(_dot(piece.at_base, 5.0, "#d65f5f"))
    if path.pieces:
        el.append(_dot(path.pieces[0].start, 4.0, "black"))
        last = path.pieces[-1]
        end = last.end if isinstance(last, HorizontalPiece) else last.at_base
        el.append(_dot(end, 4.0, "black"))
    return _svg(el)
