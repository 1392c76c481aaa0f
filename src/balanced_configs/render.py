"""Deterministic SVG figures for planar and disk configurations.

Markers are sorted by label, then x, then y, ties in input order.  Label
classes, in sorted order, take the shapes circle, square, diamond and triangle
and six colours, each cycling, so lattice vertices, edge midpoints and face
centers are drawn distinctly.  Output is plain SVG 1.1 text; rendering the
same configuration twice yields byte-identical documents.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configs import PeriodicConfig, _translate_steps
from .errors import RenderError

# per shape: the marker text, %-formatted from the columns that its function
# makes of the pixel centres x, y and the marker radius r
_SHAPES = (
    ('<circle cx="%.3f" cy="%.3f" r="{r:.3f}" fill="{c}"/>', lambda x, y, r: (x, y)),
    ('<rect x="%.3f" y="%.3f" width="{d:.3f}" height="{d:.3f}" fill="{c}"/>', lambda x, y, r: (x - r, y - r)),
    ('<polygon points="%.3f,%.3f %.3f,%.3f %.3f,%.3f %.3f,%.3f" fill="{c}"/>',
     lambda x, y, r: (x, y - r, x + r, y, x, y + r, x - r, y)),
    ('<polygon points="%.3f,%.3f %.3f,%.3f %.3f,%.3f" fill="{c}"/>',
     lambda x, y, r: (x, y - r, x + r, y + r, x - r, y + r)),
)
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
# markers per %-format, which bounds the template and the coordinate objects
# alive at once to one block's worth
_MARKERS_PER_FORMAT = 4096


@dataclass(frozen=True)
class RenderStyle:
    """Rendering options.

    window is ((xmin, xmax), (ymin, ymax)) in geometry units; it is required
    for periodic configurations and defaults to a padded bounding box (or the
    unit disk) otherwise.  Its bounds and extents must be finite and its
    extents positive.  size is the longest SVG side in pixels, at least 1;
    marker_px, the marker radius in pixels, is finite and positive.
    """

    window: tuple | None = None
    size: int = 480
    marker_px: float = 4.0
    show_boundary: bool = True

    def __post_init__(self):
        # chained comparisons refuse NaN too
        if not 1 <= self.size < math.inf:
            raise RenderError(f"render size must be at least 1 pixel, got {self.size!r}")
        if not 0.0 < self.marker_px < math.inf:
            raise RenderError(f"marker_px must be finite and positive, got {self.marker_px!r}")

    def resolved_window(self, config):
        if self.window is not None:
            (x0, x1), (y0, y1) = self.window
        elif isinstance(config, PeriodicConfig):
            raise RenderError("periodic configurations require an explicit render window")
        elif config.space == "disk":
            (x0, x1), (y0, y1) = (-1.05, 1.05), (-1.05, 1.05)
        else:
            pts = np.asarray(config.points, dtype=float)[:, :2]
            lo, hi = pts.min(axis=0), pts.max(axis=0)
            margin = 0.05 * max(hi[0] - lo[0], hi[1] - lo[1], 1.0)
            (x0, y0), (x1, y1) = lo - margin, hi + margin
        x0, x1, y0, y1 = map(float, (x0, x1, y0, y1))
        if not all(map(math.isfinite, (x0, x1, y0, y1, x1 - x0, y1 - y0))):
            raise RenderError("render window bounds and extents must be finite")
        if not (x1 > x0 and y1 > y0):
            raise RenderError("render window must have positive extent")
        return (x0, x1), (y0, y1)


def _gather(config, window):
    """x, y and label-class code of the points inside the window, sorted by
    class, x and y (ties in input order), and the sorted class names."""
    (x0, x1), (y0, y1) = window
    if isinstance(config, PeriodicConfig):
        center = np.array([(x0 + x1) / 2.0, (y0 + y1) / 2.0])
        radius = 0.5 * math.hypot(x1 - x0, y1 - y0)
        inv, span, steps = _translate_steps(config.basis, radius)
        # each motif point's translates p + n @ basis that can reach the window
        boxes = [
            p + (np.ceil(-(p - center) @ inv - span) + steps) @ config.basis
            for p in config.cartesian_motif()
        ]
        pts = np.concatenate(boxes)
        labels = config.labels or ("point",) * config.k
        owner = np.repeat(np.arange(config.k), [len(b) for b in boxes])
    else:
        if config.space == "sphere":
            raise RenderError("sphere configurations are not renderable as flat figures")
        pts = np.asarray(config.points)
        labels = config.labels or ("point",) * config.n
        owner = slice(None)
    # rank labels as Python sorts them (numpy strings drop trailing NULs)
    names = sorted(set(labels))
    rank = np.fromiter(map({lab: i for i, lab in enumerate(names)}.__getitem__, labels), np.intp, len(labels))
    x, y = pts[:, 0], pts[:, 1]
    keep = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
    if not keep.any():
        raise RenderError("no points fall inside the render window")
    present, code = np.unique(rank[owner][keep], return_inverse=True)
    x, y = x[keep], y[keep]
    order = np.lexsort((y, x, code))
    return x[order], y[order], code[order], [names[i] for i in present.tolist()]


def render_svg(config, style=None):
    """Render a configuration as an SVG 1.1 document string."""
    style = style or RenderStyle()
    window = style.resolved_window(config)
    x, y, code, classes = _gather(config, window)
    (x0, x1), (y0, y1) = window
    span_x, span_y = x1 - x0, y1 - y0
    scale = style.size / max(span_x, span_y)
    width, height = span_x * scale, span_y * scale

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.3f} {height:.3f}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
    ]
    if style.show_boundary and config.space == "disk":
        cx, cy = (0.0 - x0) * scale, (y1 - 0.0) * scale
        lines.append(
            f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{scale:.3f}" '
            'fill="none" stroke="#888888" stroke-width="1"/>'
        )
    # after the sort each class is one run of markers: one %-format per block
    sx, sy, r = (x - x0) * scale, (y1 - y) * scale, style.marker_px
    bounds = np.searchsorted(code, np.arange(len(classes) + 1)).tolist()
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        text, columns = _SHAPES[i % len(_SHAPES)]
        marker = text.format(r=r, d=2 * r, c=_COLORS[i % len(_COLORS)])
        for s in range(a, b, _MARKERS_PER_FORMAT):
            t = min(s + _MARKERS_PER_FORMAT, b)
            coords = np.column_stack(columns(sx[s:t], sy[s:t], r)).ravel().tolist()
            lines.append("\n".join([marker] * (t - s)) % tuple(coords))
    lines += ["</svg>", ""]  # the empty last line ends the text with a newline
    return "\n".join(lines)
