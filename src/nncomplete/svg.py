"""Deterministic SVG rendering of nested polygon pairs.

Styling: P filled red at 40% opacity, Q outlined blue, the triangle (when
present) outlined green.  The viewBox is the bounding box of Q padded by
10%.  Coordinates are printed with 12 significant digits; presentation
only, every decision upstream stays exact.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import NestedPair, Polygon2

_SIGNIFICANT = 12


def _fmt(x: Fraction) -> str:
    """12-significant-digit decimal, without exponent notation; ValueError
    beyond the float range."""
    if x == 0:
        return "0"
    try:
        f = float(x)
    except OverflowError:
        raise ValueError("a coordinate is too large to draw") from None
    s = f"{f:.{_SIGNIFICANT}g}"
    if "e" in s or "E" in s:
        s = f"{f:.{_SIGNIFICANT + 12}f}".rstrip("0").rstrip(".")
    return s


def _points_attr(vertices) -> str:
    # SVG's y axis points down; flip so the figure matches the plane
    return " ".join(f"{_fmt(x)},{_fmt(-y)}" for (x, y) in vertices)


def render_nested_pair(pair: NestedPair, triangle: Polygon2 | None = None) -> str:
    """SVG document for the pair (and optional triangle), as a string."""
    x0, y0, x1, y1 = pair.outer.bounding_box()
    w = x1 - x0
    h = y1 - y0
    pad_x = w / 10
    pad_y = h / 10
    vb_x = x0 - pad_x
    vb_y = -(y1 + pad_y)  # flipped axis
    vb_w = w + 2 * pad_x
    vb_h = h + 2 * pad_y
    stroke = min(vb_w, vb_h) / 200

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        (
            '<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="{_fmt(vb_x)} {_fmt(vb_y)} {_fmt(vb_w)} {_fmt(vb_h)}">'
        ),
        (
            f'<polygon points="{_points_attr(pair.outer.vertices)}" '
            f'fill="none" stroke="blue" stroke-width="{_fmt(stroke)}"/>'
        ),
        (
            f'<polygon points="{_points_attr(pair.inner.vertices)}" '
            'fill="red" fill-opacity="0.4" stroke="none"/>'
        ),
    ]
    if triangle is not None:
        lines.append(
            f'<polygon points="{_points_attr(triangle.vertices)}" '
            f'fill="none" stroke="green" stroke-width="{_fmt(stroke)}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
