"""Deterministic SVG scatter rendering."""

import numpy as np
import pytest

from oracles import reference_render_scatter_svg
from spherembed import plotting
from spherembed.plotting import PALETTE, render_scatter_svg


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
