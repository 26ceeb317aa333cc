"""Dependency-free SVG scatter rendering of embedding coordinates.

Output is a standalone SVG string built deterministically from the inputs:
the same coordinates and labels always produce byte-identical markup.

The circles are written as bytes by numpy, not by one CIRCLE.format call
each: a block of circles is a uint8 array with one row per circle, laid
out from the CIRCLE template, into which the positions' digits and the
fill colors are written. The leading zeros of each position's integer part
are then masked out. The text equals what CIRCLE.format writes.
"""

import math

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
# circles formatted per block: a block's byte rows, mask and copies of its
# text peak at about 320 bytes per circle, 1.3 MB for 4096 rows
SVG_ROWS = 4096

_PALETTE_BYTES = np.frombuffer("".join(PALETTE).encode(), dtype=np.uint8).reshape(-1, 7)
# "000" to "999": the digits of a position's integer part, or of its thousandths
_DIGITS = np.frombuffer("".join(map("{:03d}".format, range(1000))).encode(),
                        dtype=np.uint8).reshape(-1, 3)


def _scale(values, span):
    lo, hi = float(values.min()), float(values.max())
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    if not 0 < hi - lo < math.inf:  # e.g. 1e20 absorbs the 0.5, 1e308 overflows
        raise ValueError("coordinates too large to scale into a panel")
    return lambda v: (v - lo) / (hi - lo) * span


def _thousandths(values):
    """round(v * 1000) as format(v, ".3f") rounds each finite v, as int64.

    The float product v * 1000 lies within one np.spacing of the exact
    one, so np.rint rounds it as the exact product rounds unless it lies
    within a few spacings of a half. The few values that do are formatted
    by Python.
    """
    scaled = values * 1000
    near = np.flatnonzero(np.abs(scaled - np.floor(scaled) - 0.5) <= 4 * np.spacing(scaled))
    result = np.rint(scaled).astype(np.int64)
    result[near] = [int(format(v, ".3f").replace(".", "")) for v in values[near].tolist()]
    return result


def _circle_lines(x, y, colors):
    """CIRCLE.format text of each row's x and y thousandths and fill color, LF-joined.

    x and y must lie in 0..999 999; colors holds 7 bytes ("#rrggbb") per row.
    """
    head, between, fill, tail = CIRCLE.replace("{:.3f}", "{}").split("{}")
    template = f"{head}000.000{between}000.000{fill}#000000{tail}\n".encode()
    at_x, at_y = len(head), len(head) + 7 + len(between)
    at_fill = at_y + 7 + len(fill)
    rows = np.empty((len(x), len(template)), dtype=np.uint8)
    rows[:] = np.frombuffer(template, dtype=np.uint8)
    keep = np.ones(rows.shape, dtype=bool)
    for at, values in ((at_x, x), (at_y, y)):
        whole, thousandths = np.divmod(values, 1000)
        rows[:, at:at + 3] = _DIGITS[whole]
        rows[:, at + 4:at + 7] = _DIGITS[thousandths]
        keep[:, at] = whole >= 100  # the integer part's leading zeros are dropped
        keep[:, at + 1] = whole >= 10
    rows[:, at_fill:at_fill + 7] = colors
    return rows[keep].tobytes()[:-1].decode("ascii")


def render_scatter_svg(coords, labels=None):
    """Render coordinate pairs (1,2) — and (1,3) when present — as SVG panels.

    Points are colored by cluster label through the fixed palette; without
    labels a single color is used. Requires at least 2 coordinates per node,
    and raises ValueError for a non-finite coordinate among the drawn ones.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] < 2:
        raise ValueError("scatter plotting needs at least 2 coordinates per node; "
                         "for 1-dimensional embeddings export the spectrum instead")
    pairs = [(0, 1)] if coords.shape[1] == 2 else [(0, 1), (0, 2)]
    if not np.isfinite(coords[:, :len(pairs) + 1]).all():
        raise ValueError("scatter plotting needs finite coordinates: a non-finite "
                         "one has no position to draw")
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
        # every position lies in 0..width, and width is below 1000
        cx = _thousandths(x0 + sx(coords[:, ax]))
        cy = _thousandths(y0 + PANEL - sy(coords[:, ay]))
        for start in range(0, len(coords), SVG_ROWS):
            block = slice(start, start + SVG_ROWS)
            colors = (_PALETTE_BYTES[0] if labels is None
                      else _PALETTE_BYTES[labels[block] % len(PALETTE)])
            parts.append(_circle_lines(cx[block], cy[block], colors))
    parts.append("</svg>\n")
    return "\n".join(parts)
