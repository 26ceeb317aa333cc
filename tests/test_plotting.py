"""Deterministic SVG scatter rendering."""

import numpy as np
import pytest

from oracles import _reference_scale, reference_render_scatter_svg
from spherembed import plotting
from spherembed.plotting import CIRCLE, MARGIN, PALETTE, PANEL, render_scatter_svg


def coords(rng, n=10, d=3):
    return rng.standard_normal((n, d))


def test_one_dimensional_embedding_rejected(rng):
    with pytest.raises(ValueError, match="spectrum"):
        render_scatter_svg(coords(rng, d=1))


def test_panel_count_follows_dimension(rng):
    two = render_scatter_svg(coords(rng, d=2))
    assert "coord 1 vs coord 2" in two
    assert "coord 3" not in two
    three = render_scatter_svg(coords(rng, d=3))
    assert "coord 1 vs coord 2" in three
    assert "coord 1 vs coord 3" in three
    # extra dimensions beyond the third never add panels
    five = render_scatter_svg(coords(rng, d=5))
    assert five.count("<rect") == three.count("<rect")


def test_svg_deterministic(rng):
    pts = coords(rng)
    assert render_scatter_svg(pts, [0, 1] * 5) == render_scatter_svg(pts, [0, 1] * 5)


def test_palette_colors_used(rng):
    pts = coords(rng, n=4)
    svg = render_scatter_svg(pts, [0, 1, 2, 3])
    for c in PALETTE[:4]:
        assert c in svg


def test_palette_wraps_after_sixteen(rng):
    pts = coords(rng, n=17)
    svg = render_scatter_svg(pts, list(range(17)))
    # cluster 16 reuses the first palette entry
    assert svg.count(PALETTE[0]) >= 2 * svg.count(PALETTE[1])


def test_single_color_without_labels(rng):
    svg = render_scatter_svg(coords(rng))
    used = [c for c in PALETTE if c in svg]
    assert used == [PALETTE[0]]


def test_degenerate_span_does_not_crash():
    pts = np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]])  # zero x-spread
    svg = render_scatter_svg(pts)
    assert svg.startswith("<svg")
    assert "nan" not in svg


def test_point_count(rng):
    pts = coords(rng, n=8, d=2)
    assert render_scatter_svg(pts).count("<circle") == 8
    pts3 = coords(rng, n=8, d=3)
    assert render_scatter_svg(pts3).count("<circle") == 16  # both panels


@pytest.mark.parametrize("d", [2, 3, 5])
def test_svg_bytes_match_reference(rng, d):
    for n in (1, 7, 400):
        pts = coords(rng, n=n, d=d) * 10.0 ** rng.integers(-3, 4, size=d)
        pts[rng.integers(0, n)] = -0.0
        for labels in (None, rng.integers(-40, 40, size=n), list(range(n))):
            got = render_scatter_svg(pts, labels)
            assert got.encode() == reference_render_scatter_svg(pts, labels).encode()
    flat = np.column_stack([np.full(5, 2.0), np.arange(5.0), np.full((5, d - 2), -1.0)])
    assert render_scatter_svg(flat) == reference_render_scatter_svg(flat)  # zero spans


@pytest.mark.parametrize("svg_rows", [1, 3])
@pytest.mark.parametrize("d", [2, 3])
def test_svg_bytes_match_reference_in_blocks(rng, d, svg_rows, monkeypatch):
    # circles are formatted SVG_ROWS at a time; block joins must not show
    monkeypatch.setattr(plotting, "SVG_ROWS", svg_rows)
    for n in (1, 3, 10):
        pts = coords(rng, n=n, d=d)
        for labels in (None, rng.integers(-40, 40, size=n)):
            got = render_scatter_svg(pts, labels)
            assert got.encode() == reference_render_scatter_svg(pts, labels).encode()


# A thousandth's half such as 0.0025 is held as the nearest double, which
# lies just off it; only odd multiples of 1/16 are held exactly, and
# format(v, ".3f") rounds those to even. The float v * 1000 of a value a few
# ulps from a half may round onto the half or past it, so these values and
# their neighbours are the test.

def test_thousandths_match_format_at_and_beside_halves(rng):
    halves = np.concatenate([np.arange(1, 16 * 840, 2) / 16,
                             rng.choice(np.arange(1, 2000 * 840, 2), 50_000) / 2000])
    values = np.concatenate([halves, np.nextafter(halves, 0), np.nextafter(halves, np.inf),
                             rng.random(50_000) * 840])
    want = [int(format(v, ".3f").replace(".", "")) for v in values.tolist()]
    assert plotting._thousandths(values).tolist() == want


def test_circle_lines_match_format(rng):
    # positions in a panel never fall below 30; the formatter takes any in 0..999.999
    x = np.concatenate([[0, 7, 10, 99, 999, 1000, 9999, 10_000, 99_999, 100_000, 999_999],
                        rng.integers(0, 10**6, size=500)])
    y = rng.permutation(x)
    labels = rng.integers(0, len(PALETTE), size=len(x))
    want = "\n".join(map(CIRCLE.format, (x / 1000).tolist(), (y / 1000).tolist(),
                         [PALETTE[i] for i in labels]))
    assert plotting._circle_lines(x, y, plotting._PALETTE_BYTES[labels]) == want


def _on_halves(rng, position):
    """Values in [0, 1] that position maps exactly onto thousandth halves or their neighbours.

    The targets are every exact half (odd multiples of 1/16) and 3000 other
    halves in position's range, with the doubles on either side of each.
    Each is searched ulp by ulp around its interpolated inverse; those that
    no value hits are left out.
    """
    grid = np.linspace(0.0, 1.0, 1001)
    along = position(grid)
    order = np.argsort(along)
    odd = np.arange(np.ceil(2000 * along.min()), np.floor(2000 * along.max()) + 1)
    odd = odd[odd % 2 == 1]
    halves = np.concatenate([odd[odd % 125 == 0], rng.choice(odd, 3000)]) / 2000
    targets = np.concatenate([halves, np.nextafter(halves, 0), np.nextafter(halves, np.inf)])
    guess = np.interp(targets, along[order], grid[order])
    trials = guess[:, None] + np.arange(-64, 65) * np.spacing(guess)[:, None]
    hit = position(trials) == targets[:, None]
    found = hit.any(axis=1)
    return trials[found, hit[found].argmax(axis=1)]


@pytest.mark.parametrize("svg_rows", [7, plotting.SVG_ROWS])
@pytest.mark.parametrize("degenerate", [False, True])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_svg_bytes_match_reference_on_thousandth_halves(rng, d, degenerate, svg_rows,
                                                         monkeypatch):
    monkeypatch.setattr(plotting, "SVG_ROWS", svg_rows)
    scale = _reference_scale(np.array([0.0, 1.0]), PANEL)  # of every column spanning [0, 1]
    x = _on_halves(rng, lambda v: MARGIN + scale(v))
    y = _on_halves(rng, lambda v: MARGIN + PANEL - scale(v))
    assert min(len(x), len(y)) > 10_000  # most targets are hit exactly
    n = max(len(x), len(y))
    pts = np.column_stack([np.resize(x, n), np.resize(rng.permutation(y), n),
                           np.resize(y, n), rng.random((n, 2))])[:, :d]
    pts = np.vstack([np.zeros(d), np.ones(d), pts])  # each column spans [0, 1]
    if degenerate:  # a constant drawn column: its positions are the panel's center
        pts[:, min(d, 3) - 1] = 0.0625
    labels = rng.integers(-40, 40, size=len(pts))
    got = render_scatter_svg(pts, labels)
    assert got.encode() == reference_render_scatter_svg(pts, labels).encode()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_non_finite_coordinate_rejected(rng, d, bad):
    for column in range(min(d, 3)):
        pts = coords(rng, n=6, d=d)
        pts[4, column] = bad
        with pytest.raises(ValueError, match="finite"):
            render_scatter_svg(pts)
    # a coordinate beyond the third is never drawn
    pts = coords(rng, n=6, d=5)
    pts[4, 4] = np.nan
    assert render_scatter_svg(pts) == reference_render_scatter_svg(pts)


@pytest.mark.parametrize("column", [[1e308, -1e308, 0.0], [1e20, 1e20, 1e20]])
def test_coordinates_too_large_to_scale_rejected(column):
    # the span overflows, or a constant column absorbs the half-unit margin
    pts = np.column_stack([column, [0.0, 1.0, 2.0]])
    with pytest.raises(ValueError, match="too large to scale"):
        render_scatter_svg(pts)
