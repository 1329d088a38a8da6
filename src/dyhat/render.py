"""SVG rendering of triangles on the integer lattice.

Pure string assembly, no third-party drawing dependency.  Exact coordinates
are converted to floats only here, at the drawing boundary.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .geometry import Triangle

_TARGET = 480.0  # px for the larger bounding-box dimension
_LABELS = ("A", "B", "C")
_TOO_LARGE = "a coordinate is too large to draw as a float"


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str, width: str) -> str:
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{stroke}" stroke-width="{width}"/>'
    )


def render_svg(tri: Triangle) -> str:
    """Triangle with lattice guides, axes, ticks and labeled vertices."""
    try:
        pts = [(float(p.x), float(p.y)) for p in tri.vertices]
    except OverflowError:
        raise DomainError(_TOO_LARGE) from None
    xs = [p[0] for p in pts] + [0.0]
    ys = [p[1] for p in pts] + [0.0]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span = max(max_x - min_x, max_y - min_y, 1.0)
    cx = sum(p[0] for p in pts) / 3
    cy = sum(p[1] for p in pts) / 3
    if not all(map(math.isfinite, (span, cx, cy))):
        raise DomainError(_TOO_LARGE)
    unit = _TARGET / span
    pad = 0.1 * span * unit

    def sx(x: float) -> float:
        return (x - min_x) * unit + pad

    def sy(y: float) -> float:
        return (max_y - y) * unit + pad

    width = (max_x - min_x) * unit + 2 * pad
    height = (max_y - min_y) * unit + 2 * pad

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]

    # integer lattice guides, thinned when the range is large
    step = max(1, math.ceil(span / 24))
    x0, x1 = math.ceil(min_x), math.floor(max_x)
    y0, y1 = math.ceil(min_y), math.floor(max_y)
    # the multiples of step in [x0, x1] and in [y0, y1]
    grid_x = range(-(-x0 // step) * step, x1 + 1, step)
    grid_y = range(-(-y0 // step) * step, y1 + 1, step)
    for gx in grid_x:
        parts.append(_line(sx(gx), sy(min_y), sx(gx), sy(max_y), "#dddddd", "1"))
    for gy in grid_y:
        parts.append(_line(sx(min_x), sy(gy), sx(max_x), sy(gy), "#dddddd", "1"))

    # the box always holds the origin, so both axes are drawn
    parts.append(_line(sx(min_x), sy(0), sx(max_x), sy(0), "#888888", "1.5"))
    parts.append(_line(sx(0), sy(min_y), sx(0), sy(max_y), "#888888", "1.5"))

    # axis ticks with numeric labels
    for gx in grid_x:
        if gx == 0:
            continue
        parts.append(_line(sx(gx), sy(0) - 4, sx(gx), sy(0) + 4, "#555555", "1"))
        parts.append(
            f'<text x="{_fmt(sx(gx))}" y="{_fmt(height - 2)}" '
            f'font-size="11" text-anchor="middle" fill="#555555">{gx}</text>'
        )
    for gy in grid_y:
        if gy == 0:
            continue
        parts.append(_line(sx(0) - 4, sy(gy), sx(0) + 4, sy(gy), "#555555", "1"))
        parts.append(
            f'<text x="2" y="{_fmt(sy(gy) + 4)}" font-size="11" '
            f'fill="#555555">{gy}</text>'
        )

    # the triangle itself
    corners = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
    parts.append(
        f'<polygon points="{corners}" fill="#4477aa" fill-opacity="0.18" '
        'stroke="#113355" stroke-width="2"/>'
    )

    # vertices and their labels, pushed away from the centroid
    for (x, y), label in zip(pts, _LABELS):
        parts.append(
            f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3.5" fill="#113355"/>'
        )
        dx, dy = x - cx, y - cy
        norm = math.hypot(dx, dy) or 1.0
        lx = sx(x) + 14 * dx / norm
        ly = sy(y) - 14 * dy / norm + 5
        parts.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="16" '
            f'font-weight="bold" text-anchor="middle" fill="#113355">{label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts)
