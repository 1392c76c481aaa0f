"""Deterministic SVG figures for planar and disk configurations.

Marker shape and color are assigned per label class (circle, square, diamond,
then triangle), matching the visual convention of drawing lattice vertices,
edge midpoints, and face centers distinctly.  Output is plain SVG 1.1 text;
rendering the same configuration twice yields byte-identical documents.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configs import FinitePointSet, PatchConfig, PeriodicConfig
from .errors import RenderError

_SHAPES = ("circle", "square", "diamond", "triangle")
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def _translate_box(basis, delta, radius, pad=1):
    """Integer (a, b) pairs with |delta + a v1 + b v2| possibly <= radius."""
    inv = np.linalg.inv(basis)
    center = -np.asarray(delta) @ inv
    spans = radius * np.linalg.norm(inv, axis=0) + pad
    a = np.arange(math.ceil(center[0] - spans[0]), math.floor(center[0] + spans[0]) + 1)
    b = np.arange(math.ceil(center[1] - spans[1]), math.floor(center[1] + spans[1]) + 1)
    aa, bb = np.meshgrid(a, b, indexing="ij")
    return np.column_stack([aa.ravel(), bb.ravel()]).astype(float)


@dataclass(frozen=True)
class RenderStyle:
    """Rendering options.

    window is ((xmin, xmax), (ymin, ymax)) in geometry units; it is required
    for periodic configurations and defaults to a padded bounding box (or the
    unit disk) otherwise.  size is the longest SVG side in pixels.
    """

    window: tuple | None = None
    size: int = 480
    marker_px: float = 4.0
    show_boundary: bool = True

    def resolved_window(self, config):
        if self.window is not None:
            (x0, x1), (y0, y1) = self.window
            if not (x1 > x0 and y1 > y0):
                raise RenderError("render window must have positive extent")
            return (float(x0), float(x1)), (float(y0), float(y1))
        if isinstance(config, PeriodicConfig):
            raise RenderError("periodic configurations require an explicit render window")
        if isinstance(config, PatchConfig) or config.space == "disk":
            return (-1.05, 1.05), (-1.05, 1.05)
        pts = np.asarray(config.points, dtype=float)
        margin = 0.05 * max(
            pts[:, 0].max() - pts[:, 0].min(), pts[:, 1].max() - pts[:, 1].min(), 1.0
        )
        return (
            (float(pts[:, 0].min() - margin), float(pts[:, 0].max() + margin)),
            (float(pts[:, 1].min() - margin), float(pts[:, 1].max() + margin)),
        )


def _gather(config, window):
    """Points (with labels) falling inside the window, in a canonical order."""
    (x0, x1), (y0, y1) = window
    if isinstance(config, PeriodicConfig):
        cart = config.cartesian_motif()
        labels = config.labels or tuple("point" for _ in range(config.k))
        center = np.array([(x0 + x1) / 2.0, (y0 + y1) / 2.0])
        radius = 0.5 * math.hypot(x1 - x0, y1 - y0)
        out = []
        for p, lab in zip(cart, labels):
            trans = _translate_box(config.basis, p - center, radius, pad=1)
            pts = p + trans @ config.basis
            keep = (
                (pts[:, 0] >= x0) & (pts[:, 0] <= x1) & (pts[:, 1] >= y0) & (pts[:, 1] <= y1)
            )
            out.extend((float(q[0]), float(q[1]), lab) for q in pts[keep])
    else:
        if isinstance(config, FinitePointSet) and config.space == "sphere":
            raise RenderError("sphere configurations are not renderable as flat figures")
        labels = config.labels or tuple("point" for _ in range(config.n))
        out = [
            (float(p[0]), float(p[1]), lab)
            for p, lab in zip(config.points, labels)
            if x0 <= p[0] <= x1 and y0 <= p[1] <= y1
        ]
    if not out:
        raise RenderError("no points fall inside the render window")
    return sorted(out, key=lambda t: (t[2], t[0], t[1]))


def _marker(shape, x, y, r, color):
    if shape == "circle":
        return f'<circle cx="{x:.3f}" cy="{y:.3f}" r="{r:.3f}" fill="{color}"/>'
    if shape == "square":
        return (
            f'<rect x="{x - r:.3f}" y="{y - r:.3f}" width="{2 * r:.3f}" '
            f'height="{2 * r:.3f}" fill="{color}"/>'
        )
    if shape == "diamond":
        pts = f"{x:.3f},{y - r:.3f} {x + r:.3f},{y:.3f} {x:.3f},{y + r:.3f} {x - r:.3f},{y:.3f}"
        return f'<polygon points="{pts}" fill="{color}"/>'
    pts = f"{x:.3f},{y - r:.3f} {x + r:.3f},{y + r:.3f} {x - r:.3f},{y + r:.3f}"
    return f'<polygon points="{pts}" fill="{color}"/>'


def render_svg(config, style=None):
    """Render a configuration as an SVG 1.1 document string."""
    style = style or RenderStyle()
    window = style.resolved_window(config)
    points = _gather(config, window)
    (x0, x1), (y0, y1) = window
    span_x, span_y = x1 - x0, y1 - y0
    scale = style.size / max(span_x, span_y)
    width, height = span_x * scale, span_y * scale

    classes = sorted({lab for _, _, lab in points})
    shape_of = {lab: _SHAPES[i % len(_SHAPES)] for i, lab in enumerate(classes)}
    color_of = {lab: _COLORS[i % len(_COLORS)] for i, lab in enumerate(classes)}

    body = []
    if style.show_boundary and (
        isinstance(config, PatchConfig)
        or (isinstance(config, FinitePointSet) and config.space == "disk")
    ):
        cx, cy = (0.0 - x0) * scale, (y1 - 0.0) * scale
        body.append(
            f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{scale:.3f}" '
            'fill="none" stroke="#888888" stroke-width="1"/>'
        )
    for x, y, lab in points:
        sx, sy = (x - x0) * scale, (y1 - y) * scale
        body.append(_marker(shape_of[lab], sx, sy, style.marker_px, color_of[lab]))

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.3f} {height:.3f}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
        *body,
        "</svg>",
    ]
    return "\n".join(lines) + "\n"
