"""Dependency-free SVG scatter rendering of embedding coordinates.

Output is a standalone SVG string built deterministically from the inputs:
the same coordinates and labels always produce byte-identical markup.
"""

import itertools

import numpy as np

# fixed 16-color palette, cycled by cluster id
PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78",
    "#98df8a", "#ff9896", "#c5b0d5", "#c49c94",
]

PANEL = 360
MARGIN = 30
CIRCLE = '<circle cx="{:.3f}" cy="{:.3f}" r="3" fill="{}" fill-opacity="0.8"/>'
# circles formatted per block, joined into one string: a Python string per
# circle of a 100 000-node panel would hold about 13 MB at once
SVG_ROWS = 4096


def _scale(values, span):
    lo, hi = float(values.min()), float(values.max())
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    return lambda v: (v - lo) / (hi - lo) * span


def render_scatter_svg(coords, labels=None):
    """Render coordinate pairs (1,2) — and (1,3) when present — as SVG panels.

    Points are colored by cluster label through the fixed palette; without
    labels a single color is used. Requires at least 2 coordinates per node.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] < 2:
        raise ValueError("scatter plotting needs at least 2 coordinates per node; "
                         "for 1-dimensional embeddings export the spectrum instead")
    pairs = [(0, 1)] if coords.shape[1] == 2 else [(0, 1), (0, 2)]
    if labels is not None:
        labels = np.asarray(labels, dtype=int)
        if len(labels) != coords.shape[0]:
            raise ValueError("labels length does not match coordinate rows")

    width = len(pairs) * (PANEL + 2 * MARGIN)
    height = PANEL + 2 * MARGIN
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for p, (ax, ay) in enumerate(pairs):
        x0 = p * (PANEL + 2 * MARGIN) + MARGIN
        y0 = MARGIN
        sx = _scale(coords[:, ax], PANEL)
        sy = _scale(coords[:, ay], PANEL)
        parts.append(f'<rect x="{x0}" y="{y0}" width="{PANEL}" height="{PANEL}" '
                     'fill="none" stroke="#cccccc"/>')
        parts.append(f'<text x="{x0 + 4}" y="{y0 + 14}" font-size="12" '
                     f'fill="#555555">coord {ax + 1} vs coord {ay + 1}</text>')
        cx = x0 + sx(coords[:, ax])
        cy = y0 + PANEL - sy(coords[:, ay])
        for start in range(0, len(coords), SVG_ROWS):
            block = slice(start, start + SVG_ROWS)
            colors = (itertools.repeat(PALETTE[0]) if labels is None
                      else np.array(PALETTE)[labels[block] % len(PALETTE)].tolist())
            parts.append("\n".join(map(CIRCLE.format, cx[block].tolist(), cy[block].tolist(),
                                       colors)))
    parts.append("</svg>\n")
    return "\n".join(parts)
