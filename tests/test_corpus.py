"""Tests for figure generation, polynomial warping and the corpus sweep."""

import contextlib
import csv
import os
import re
import signal
import subprocess
import sys
import threading
import traceback
import tracemalloc
import warnings
from itertools import permutations
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval

import densitycode
from densitycode import (
    CorpusSpec,
    EncodeParams,
    GrayImage,
    Polarity,
    WindWarp,
    check_warp_family,
    code_length,
    delta_median,
    encode,
    generate_corpus,
    generate_figure,
    halton,
    invert,
    load_corpus,
    load_pgm,
    make_density_field,
    normalize,
    sweep,
    warp_image,
    wind_warp_coefficients,
    write_pgm,
)
import densitycode.corpus as corpus_module
import densitycode.matcher as matcher_module
import densitycode.quasirandom as quasirandom_module
from densitycode.corpus import SweepRow, _bilinear, _render_segments


def identity_warp():
    """A new identity map, a = 1, b = 0, q = y, with a cubic's room in b and q."""
    return WindWarp(
        a=np.array([1.0, 0.0, 0.0]), b=np.zeros(4), q=np.array([0.0, 1.0, 0.0, 0.0])
    )


def figure_mass(img):
    """Normalized foreground mass of a light-on-dark figure."""
    return normalize(img, Polarity.LIGHT_ON_DARK).foreground_mass


def bisect(fn, t, hi):
    """Solve fn(x) = t on [0, hi] for increasing fn; NaN outside its range."""
    lo_x, hi_x = np.zeros(t.shape), np.full(t.shape, hi)
    for _ in range(64):
        mid = 0.5 * (lo_x + hi_x)
        right = fn(mid) < t
        lo_x, hi_x = np.where(right, mid, lo_x), np.where(right, hi_x, mid)
    outside = (t < fn(np.zeros(1))) | (t > fn(np.full(1, hi)))
    return np.where(outside, np.nan, 0.5 * (lo_x + hi_x))


def root_finding_warp(img, warp):
    """Reference warp_image that bisects for the source y and x of every pixel."""
    px = img.pixels
    sy, sx = px.shape
    fill = float(px.min())
    y_src = bisect(lambda y: polyval(y, warp.q), np.arange(sy) + 0.5, sy)
    out = np.full((sy, sx), fill)
    for r, y0 in enumerate(y_src):
        if np.isfinite(y0):
            a, b = polyval(y0, warp.a), polyval(y0, warp.b)
            x_src = bisect(lambda x: a * x + b, np.arange(sx) + 0.5, sx)
            out[r] = _bilinear(px, x_src, np.full(sx, y0), fill)
    return np.maximum(out, 0.0)


def row_bilinear(px, x, y, fill):
    """The sampler as it was before blocks: one row, 2-D fancy indexing."""
    sy, sx = px.shape
    with np.errstate(invalid="ignore"):
        ok = np.isfinite(x) & np.isfinite(y)
        ok &= (x >= 0.0) & (x <= sx) & (y >= 0.0) & (y <= sy)
    xc = np.clip(np.nan_to_num(x) - 0.5, 0.0, sx - 1.0)
    yc = np.clip(np.nan_to_num(y) - 0.5, 0.0, sy - 1.0)
    j0 = np.minimum(np.floor(xc).astype(np.intp), sx - 2)
    i0 = np.minimum(np.floor(yc).astype(np.intp), sy - 2)
    fx = xc - j0
    fy = yc - i0
    top = (1.0 - fx) * px[i0, j0] + fx * px[i0, j0 + 1]
    bottom = (1.0 - fx) * px[i0 + 1, j0] + fx * px[i0 + 1, j0 + 1]
    return np.where(ok, (1.0 - fy) * top + fy * bottom, fill)


def row_by_row_warp(img, warp):
    """Reference warp_image: one sampling call per output row, as it was."""
    px = img.pixels
    sy, sx = px.shape
    fill = float(px.min())
    y_src = corpus_module._invert_monotone(warp.q, np.arange(sy) + 0.5, 0.0, sy)
    a = corpus_module._poly(warp.a, y_src)
    b = corpus_module._poly(warp.b, y_src)
    col_targets = np.arange(sx) + 0.5
    out = np.full((sy, sx), fill)
    for r in np.flatnonzero(np.isfinite(y_src)):
        x_src = (col_targets - b[r]) / a[r]
        out[r] = row_bilinear(px, x_src, np.full(sx, y_src[r]), fill)
    return np.maximum(out, 0.0)


def clipped_box(x0, y0, x1, y1, width, size, width_scale):
    """A segment's half width and its box's first and last column and row:
    the pixels within half its width plus 1.5 of its ends, clipped."""
    hw = 0.5 * width * width_scale
    pad = hw + 1.5
    c0 = max(int(np.floor(min(x0, x1) - pad)), 0)
    c1 = min(int(np.ceil(max(x0, x1) + pad)), size - 1)
    r0 = max(int(np.floor(min(y0, y1) - pad)), 0)
    r1 = min(int(np.ceil(max(y0, y1) + pad)), size - 1)
    return hw, c0, c1, r0, r1


def box_cells(segments, size, width_scale):
    """Cells in the segments' clipped boxes, each segment counted alone."""
    total = 0
    for segment in segments:
        _, c0, c1, r0, r1 = clipped_box(*segment, size, width_scale)
        total += max(c1 + 1 - c0, 0) * max(r1 + 1 - r0, 0)
    return total


def segment_by_segment(segments, size, width_scale):
    """The stroke rasterizer as one numpy pass per segment over its whole box."""
    canvas = np.zeros((size, size))
    for x0, y0, x1, y1, width in segments:
        hw, c0, c1, r0, r1 = clipped_box(x0, y0, x1, y1, width, size, width_scale)
        if c1 < c0 or r1 < r0:
            continue
        px = np.arange(c0, c1 + 1) + 0.5
        py = (np.arange(r0, r1 + 1) + 0.5)[:, None]
        dx = x1 - x0
        dy = y1 - y0
        seg_len_sq = dx * dx + dy * dy
        if seg_len_sq == 0.0:
            dist = np.hypot(px - x0, py - y0)
        else:
            t = np.clip(((px - x0) * dx + (py - y0) * dy) / seg_len_sq, 0.0, 1.0)
            dist = np.hypot(px - (x0 + t * dx), py - (y0 + t * dy))
        value = np.clip(hw + 0.5 - dist, 0.0, 1.0)
        region = canvas[r0 : r1 + 1, c0 : c1 + 1]
        np.maximum(region, value, out=region)
    return canvas


# the stroke-width scales generate_figure tries, 1.0 up to 1.3^9
WIDTH_SCALES = [1.0]
for _ in range(9):
    WIDTH_SCALES.append(WIDTH_SCALES[-1] * 1.3)
# segments the span bound must hold for, nearly flat ones most of all
SHAPES = ["any", "dot", "horizontal", "vertical", "nearly flat", "grazing"]


def hand_made_segments(size):
    """Segments (x0, y0, x1, y1, width) at the edges of a size x size canvas."""
    s = float(size)
    return [
        (0.3 * s, 0.4 * s, 0.3 * s, 0.4 * s, 6.0),  # zero length
        (-40.0, 20.0, -15.0, 30.0, 4.0),  # wholly off the left side
        (s + 15.0, 20.0, s + 40.0, 30.0, 4.0),  # ... the right
        (20.0, -40.0, 30.0, -15.0, 4.0),  # ... the top
        (20.0, s + 15.0, 30.0, s + 40.0, 4.0),  # ... the bottom
        (-5.0, 0.5 * s, 10.0, 0.5 * s + 3.0, 3.0),  # clipped at the left edge
        (s - 10.0, s / 3.0, s + 5.0, s / 3.0 + 2.0, 3.0),  # ... the right
        (0.5 * s, -5.0, 0.5 * s + 4.0, 10.0, 3.0),  # ... the top
        (s / 3.0, s - 10.0, s / 3.0 - 3.0, s + 5.0, 3.0),  # ... the bottom
        # a diagonal whose box is the whole canvas, nearly all of it out of reach
        (5.0, 5.0, s - 5.0, s - 8.0, 7.0),
    ]


class TestRenderSegments:
    @pytest.mark.parametrize("width_scale", [1.0, 1.3, 1.69])
    @pytest.mark.parametrize("size", [64, 128, 256, 1024])
    def test_blocks_equal_the_segment_by_segment_render_bit_for_bit(
        self, size, width_scale
    ):
        skeleton = corpus_module._grow_skeleton(np.random.default_rng([size, 3]), size)
        for segments in (skeleton, hand_made_segments(size)):
            got = _render_segments(segments, size, width_scale)
            want = segment_by_segment(segments, size, width_scale)
            assert want.any()
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_off_canvas_and_zero_length_segments(self):
        size = 128
        off = hand_made_segments(size)[1:5]
        assert not _render_segments(off, size, 1.0).any()
        assert not _render_segments([], size, 1.0).any()
        x0, y0, _, _, width = hand_made_segments(size)[0]
        dot = _render_segments([(x0, y0, x0, y0, width)], size, 1.0)
        # a soft disc of radius hw + 0.5 about its one point
        centres = np.arange(size) + 0.5
        dist = np.hypot(centres - x0, centres[:, None] - y0)
        assert np.array_equal(dot, np.clip(0.5 * width + 0.5 - dist, 0.0, 1.0))
        assert np.count_nonzero(dot) == 40 and dot.max() == 1.0

    @pytest.mark.parametrize("cells", [1, 37, 1000])
    def test_pass_boundaries_change_nothing(self, monkeypatch, cells):
        # budgets that end passes inside a segment's rows and inside a row
        size = 1024
        skeleton = corpus_module._grow_skeleton(np.random.default_rng([size, 3]), size)
        for segments in (skeleton, hand_made_segments(size)):
            want = _render_segments(segments, size, 1.0)
            with monkeypatch.context() as patched:
                patched.setattr(corpus_module, "_BLOCK_CELLS", cells)
                got = _render_segments(segments, size, 1.0)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_passes_evaluate_only_the_pixels_strokes_can_reach(self, monkeypatch):
        passes, maximum = [], np.maximum

        class Recording:  # np.maximum, counting the cells each merge brings
            def __call__(self, *args, **kwargs):
                return maximum(*args, **kwargs)

            def at(self, out, index, values):
                passes.append(len(values))
                maximum.at(out, index, values)

        size = 1024
        skeleton = corpus_module._grow_skeleton(np.random.default_rng([size, 3]), size)
        for segments, share in ((skeleton, 0.5), (hand_made_segments(size), 0.1)):
            passes.clear()
            with monkeypatch.context() as patched:
                patched.setattr(np, "maximum", Recording())
                _render_segments(segments, size, 1.0)
            assert passes and max(passes) <= corpus_module._BLOCK_CELLS
            assert sum(passes) <= share * box_cells(segments, size, 1.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        size=st.integers(min_value=64, max_value=300),
        data=st.data(),
        width_scale=st.sampled_from(WIDTH_SCALES),
    )
    def test_random_segments_render_as_one_segment_at_a_time(
        self, size, data, width_scale
    ):
        coordinate = st.floats(min_value=-40.0, max_value=size + 40.0)
        segments = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            x0, y0, x1, y1 = (data.draw(coordinate) for _ in range(4))
            width = data.draw(st.floats(min_value=0.5, max_value=float(size)))
            shape = data.draw(st.sampled_from(SHAPES))
            if shape == "dot":
                x1, y1 = x0, y0
            elif shape == "horizontal":
                y1 = y0
            elif shape == "vertical":
                x1 = x0
            elif shape != "any":  # |dy| <= 1e-9 |dx|
                if shape == "grazing":  # its reach ends on a row of pixel centres
                    y0 = np.floor(y0) + 0.5 + (0.5 * width * width_scale + 0.5)
                tilt = data.draw(st.floats(min_value=-1e-9, max_value=1e-9))
                y1 = y0 + tilt * (x1 - x0)
            segments.append((x0, y0, x1, y1, width))
        got = _render_segments(segments, size, width_scale)
        want = segment_by_segment(segments, size, width_scale)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def offset_table_blur(n, sigma, rows=slice(None), cols=slice(None)):
    """Rows and columns of the dense n x n blur matrix K, K[i, j] the tap at
    offset i - j: a clipped offset table indexing the taps, padded by one
    zero at each end."""
    radius = int(4.0 * sigma + 0.5)
    taps = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    taps = np.pad(taps / taps.sum(), 1)
    offset = np.subtract.outer(np.arange(n)[rows], np.arange(n)[cols]) + radius + 1
    return taps[np.clip(offset, 0, 2 * radius + 2)]


def dense_blur(canvas, sigma):
    """K p K^T with the dense blur matrix."""
    K = offset_table_blur(len(canvas), sigma)
    return K @ canvas @ K.T


@pytest.mark.parametrize(
    "n, sigma",
    [
        (64, 1.0),
        (64, 20.0),  # radius 80 > n: every row holds taps of both tails
        (65, 0.3),
        (333, 333 / 64),
        (333, 7.7),
        (1000, 15.625),
        (4096, 64.0),
    ],
)
def test_blur_equals_the_dense_matrix_product(n, sigma):
    # p is lit on the cells of up to 40 random rows and columns and the
    # edges; K p K^T is summed over those cells alone, as K[:, R] p[R, C]
    # K[:, C]^T (every other term is a zero), in blocks of 512 rows
    rng = np.random.default_rng(n)
    R, C = (
        np.union1d([0, n - 1], rng.choice(n, min(n, 40), replace=False)) for _ in "RC"
    )
    lit = rng.uniform(0.5, 2.0, (len(R), len(C)))
    canvas = np.zeros((n, n))
    canvas[np.ix_(R, C)] = lit
    got = corpus_module._blur(canvas, sigma)
    assert got is canvas
    right = lit @ offset_table_blur(n, sigma, cols=C).T
    for r0 in range(0, n, 512):
        want = offset_table_blur(n, sigma, slice(r0, r0 + 512), R) @ right
        block = got[r0 : r0 + 512]
        assert np.array_equal(block == 0.0, want == 0.0)
        assert np.all(np.abs(block - want) <= 1e-13 * want)


@pytest.mark.parametrize("n", [64, 65, 333, 1024, 4096])
def test_blur_of_lone_pixels_is_the_outer_product_of_two_tap_columns(n):
    # corners, edge midpoints and centre lie n / 2 apart, farther than their
    # blurs reach (radius about n / 16): each output is one product, exact
    sigma, at = n / 64.0, [0, n // 2, n - 1]
    radius = int(4.0 * sigma + 0.5)
    canvas = np.zeros((n, n))
    canvas[np.ix_(at, at)] = 1.0
    got = corpus_module._blur(canvas, sigma)
    for i in at:
        for j in at:
            rows = slice(max(i - radius, 0), i + radius + 1)
            cols = slice(max(j - radius, 0), j + radius + 1)
            column_i = offset_table_blur(n, sigma, rows, [i])[:, 0]
            column_j = offset_table_blur(n, sigma, cols, [j])[:, 0]
            want = np.outer(column_i, column_j)
            assert np.array_equal(got[rows, cols].view(np.int64), want.view(np.int64))
            got[rows, cols] = 0.0
    assert not got.any()  # nothing lit outside the nine supports


@pytest.mark.parametrize(
    "seed, size", [(0, 64), (3, 96), ([7, 2], 300), ([1, 1], 1024)]
)
def test_figure_writes_the_raster_of_the_dense_blur(tmp_path, monkeypatch, seed, size):
    def written(name):  # as generate_corpus writes a figure
        img = generate_figure(seed, size)
        write_pgm(img.pixels / img.hi * 65535.0, tmp_path / name, maxval=65535)
        return (tmp_path / name).read_bytes()

    banded = written("banded.pgm")
    monkeypatch.setattr(corpus_module, "_blur", dense_blur)
    assert written("dense.pgm") == banded


def test_a_1024_figure_peaks_within_two_and_a_quarter_canvases():
    # the render canvas, the row pass and the blur's small window and cuts
    n = 1024
    tracemalloc.start()
    try:
        generate_figure([1, 0], n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * n * n * 8


class TestGenerateFigure:
    def test_deterministic(self):
        a = generate_figure(3, 96)
        b = generate_figure(3, 96)
        assert np.array_equal(a.pixels, b.pixels)

    def test_never_flat(self):
        for seed in range(5):
            img = generate_figure(seed, 128)
            assert img.pixels.max() > img.pixels.min()

    def test_mass_floor(self):
        for seed in range(5):
            img = generate_figure(seed, 128)
            assert figure_mass(img) > 0.02 * 128 * 128

    def test_rejects_small_size(self):
        with pytest.raises(ValueError):
            generate_figure(0, 32)

    def test_grows_the_stroke_width_until_the_mass_floor_clears(self, monkeypatch):
        render, scales = corpus_module._render_segments, []

        def dark_at_first(segments, size, width_scale):
            scales.append(width_scale)
            canvas = render(segments, size, width_scale)
            return canvas if len(scales) == 3 else np.zeros_like(canvas)

        monkeypatch.setattr(corpus_module, "_render_segments", dark_at_first)
        img = generate_figure(3, 64)
        assert scales == [1.0, 1.3, 1.3 * 1.3]
        assert figure_mass(img) > 0.02 * 64 * 64 and img.hi == 255.0

    def test_gives_up_after_ten_widths(self, monkeypatch):
        scales = []

        def one_pixel(segments, size, width_scale):
            # lit, but its blur holds far too little mass for the floor
            scales.append(width_scale)
            canvas = np.zeros((size, size))
            canvas[size // 2, size // 2] = 1.0
            return canvas

        monkeypatch.setattr(corpus_module, "_render_segments", one_pixel)
        message = "^figure generator failed to reach the mass floor$"
        with pytest.raises(RuntimeError, match=message):
            generate_figure(3, 64)
        assert len(scales) == 10 and scales[-1] == pytest.approx(1.3**9)

    @pytest.mark.parametrize("size", [4097, 100000])
    def test_rejects_sizes_over_the_corpus_bound(self, size):
        # before any (size, size) canvas: 74.5 GiB at 100000
        message = rf"size must be in 64\.\.4096, got {size}"
        with pytest.raises(ValueError, match=message):
            generate_figure(0, size)


class TestWarp:
    def test_identity_is_exact(self):
        img = generate_figure(1, 96)
        out = warp_image(img, identity_warp())
        assert np.array_equal(out.pixels, img.pixels)

    def test_whole_pixel_translation(self):
        img = generate_figure(2, 96)
        warp = identity_warp()
        warp.b[0] = 5.0  # constant x shift
        warp.q[0] = 3.0  # constant y shift
        out = warp_image(img, warp)
        # shifted input on the overlap, up to root-finding jitter in the
        # inverse map (sub-ulp coordinate error scaled by pixel gradients)
        assert np.allclose(out.pixels[3:, 5:], img.pixels[:-3, :-5], atol=1e-9)
        # vacated band reads as background
        assert np.all(out.pixels[:3, :] == img.pixels.min())

    def test_family_violation_rejected(self):
        img = generate_figure(3, 96)
        flipped = identity_warp()
        flipped.a[0] = -1.0  # x output decreasing in x
        falling = identity_warp()
        falling.q[2] = -0.01  # q' = 1 - 0.02 y: y output decreasing past row 50
        undefined = identity_warp()
        undefined.a[1] = np.nan
        for warp in (flipped, falling, undefined):
            with pytest.raises(ValueError, match="not in transformation family"):
                warp_image(img, warp)

    def test_closed_form_matches_root_finding(self):
        warps = []
        for seed in range(5):
            rng = np.random.default_rng([seed, 1])
            warps.append((seed, wind_warp_coefficients(rng, 128)))
        scaled = wind_warp_coefficients(np.random.default_rng(99), 128)
        scaled.a[1] = 0.2 / 128  # x*y term: a(y) runs from 1 to 1.2
        warps.append((99, scaled))
        for seed, warp in warps:
            img = generate_figure(seed, 128)
            got = warp_image(img, warp).pixels
            assert np.max(np.abs(got - root_finding_warp(img, warp))) <= 1e-9

    @pytest.mark.parametrize(
        "sy, sx",
        [(64, 64), (128, 128), (200, 333), (333, 200), (1000, 7), (1024, 1024)],
    )
    def test_blocks_equal_the_row_by_row_warp_bit_for_bit(self, sy, sx):
        rng = np.random.default_rng([sy, sx])
        if sy == sx:
            img = generate_figure([sy, 5], sy)
        else:  # column-major pixels: the blocks index a row-major copy
            img = GrayImage(pixels=rng.uniform(0.0, 255.0, (sx, sy)).T)
        warp = wind_warp_coefficients(rng, sy)
        # an x shift in proportion to the width, and a(y) from 1 to 1.2
        warp = warp._replace(b=warp.b * (sx / sy), a=np.array([1.0, 0.2 / sy, 0.0]))
        got = warp_image(img, warp).pixels
        want = row_by_row_warp(img, warp)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_integer_pixels_warp_as_their_float64_copy(self, tmp_path, maxval):
        figure = generate_figure([4, 2], 160)
        path = tmp_path / "figure.pgm"
        write_pgm(figure.pixels / figure.hi * maxval, path, maxval=maxval)
        loaded = load_pgm(path)
        assert loaded.pixels.dtype.kind == "u"
        warp = wind_warp_coefficients(np.random.default_rng(maxval), 160)
        warp.q[0] = 2.0  # the top rows' sources lie off the image: fill
        got = warp_image(loaded, warp).pixels
        want = warp_image(GrayImage(pixels=loaded.pixels.astype(float)), warp).pixels
        assert got.dtype == np.float64 and np.all(got[:2] == loaded.lo)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize(
        "shift, outside",
        [(3.0, slice(None, 3)), (-3.0, slice(-3, None)), (250.0, slice(None, 250))],
    )
    def test_blocks_leave_rows_outside_the_image_as_fill(self, shift, outside):
        # q(y) = y + shift sends the outside rows' sources off the image (NaN
        # rows); at 250 the 50 rows left are one partial block of 54
        img = generate_figure(2, 300)
        warp = identity_warp()
        warp.b[0], warp.b[1] = 2.5, 0.01
        warp.q[0] = shift
        got = warp_image(img, warp).pixels
        want = row_by_row_warp(img, warp)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.all(got[outside] == img.lo)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_samples_at_nan_and_infinite_x_are_fill(self):
        # a(y) = 1 + 1e307 y and b(y) = -1.5e308 + 1e307 y overflow from
        # y = 18 on, so x = (c - inf) / inf is NaN there; above row 14 the
        # source x, about (15 - y) / y, lies inside the image
        img = GrayImage(pixels=np.random.default_rng(9).uniform(1.0, 9.0, (64, 64)))
        warp = identity_warp()
        warp.a[1], warp.b[0], warp.b[1] = 1e307, -1.5e308, 1e307
        got = warp_image(img, warp).pixels  # the mark makes a warning fail
        with np.errstate(over="ignore", invalid="ignore"):
            want = row_by_row_warp(img, warp)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.all(got[18:] == img.lo) and np.all(got[:14] > img.lo)
        x = np.array([[np.nan, np.inf, -np.inf, -0.1, 64.1, 0.0, 64.0, 31.3]])
        y = np.full((1, 1), 40.2)
        want = row_bilinear(img.pixels, x[0], np.full(8, 40.2), -1.0)
        assert np.array_equal(_bilinear(img.pixels, x, y, -1.0)[0], want)
        assert np.all(want[:5] == -1.0) and np.all(want[5:] >= 0.0)

    def test_one_sampling_call_per_block(self, monkeypatch):
        calls = []

        def counting(px, x, y, fill):
            calls.append(np.broadcast(x, y).shape)
            return _bilinear(px, x, y, fill)

        monkeypatch.setattr(corpus_module, "_bilinear", counting)
        img = GrayImage(pixels=np.random.default_rng(8).uniform(0, 9, (200, 333)))
        got = warp_image(img, identity_warp()).pixels
        # 49 rows of 333 pixels make a block: four whole blocks, then 4 rows
        assert calls == [(49, 333)] * 4 + [(4, 333)]
        assert all(rows * cols <= 2**14 for rows, cols in calls)
        assert np.array_equal(got, img.pixels)

    def test_family_is_checked_between_sample_rows(self):
        # q' = 0.008 - 0.006 y + 0.000999 y^2 dips below 0 on 2 < y < 4,
        # between rows 0 and 6 of a 17-row sample of [0, 96]
        dipping = WindWarp(
            np.array([1.0]), np.zeros(1), np.array([0, 0.008, -0.003, 0.000333])
        )
        with pytest.raises(ValueError, match="Jacobian diagonal not positive"):
            check_warp_family(dipping, 96)
        # the same bend with q'(3.003) = +0.000991 is in the family
        check_warp_family(dipping._replace(q=np.array([0, 0.01, -0.003, 0.000333])), 96)
        # a(y) = 1 - 0.0401 y + 0.0004 y^2 has its least value, -0.005, at y = 50.125
        sagging = WindWarp(
            np.array([1.0, -0.0401, 0.0004]), np.zeros(1), np.array([0, 1.0])
        )
        with pytest.raises(ValueError, match="Jacobian diagonal not positive"):
            check_warp_family(sagging, 96)
        # outside [0, sy] the same dips do not count
        check_warp_family(dipping, 1)
        check_warp_family(sagging, 45)

    @pytest.mark.parametrize("field", ["a", "b", "q"])
    def test_family_degrees_are_bounded(self, field):
        # one more coefficient than the family allows, even a zero one
        warp = identity_warp()
        warp = warp._replace(**{field: np.append(getattr(warp, field), 0.0)})
        with pytest.raises(ValueError, match="above degree"):
            check_warp_family(warp, 64)

    def test_wind_warp_is_in_family(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            check_warp_family(wind_warp_coefficients(rng, 128), 128)

    def test_wind_warp_moves_the_figure(self):
        img = generate_figure(5, 128)
        rng = np.random.default_rng(6)
        out = warp_image(img, wind_warp_coefficients(rng, 128))
        assert not np.array_equal(out.pixels, img.pixels)
        # warped figure keeps a comparable mass
        assert figure_mass(out) > 0.5 * figure_mass(img)


class TestGenerateCorpus:
    def test_files_and_manifest(self, tmp_path):
        spec = CorpusSpec(pair_count=2, size=64, seed=9)
        rows = generate_corpus(tmp_path, spec)
        assert len(rows) == 2
        assert (tmp_path / "manifest.csv").is_file()
        for k in range(2):
            for suffix in ("A", "B"):
                path = tmp_path / f"pair{k}_{suffix}.pgm"
                assert path.is_file()
                img = load_pgm(path)
                assert img.pixels.shape == (64, 64)
                # loaded images must normalize and carry mass
                nimg = normalize(img, Polarity.LIGHT_ON_DARK)
                assert nimg.foreground_mass > 0

    def test_reproducible(self, tmp_path):
        spec = CorpusSpec(pair_count=2, size=64, seed=11)
        generate_corpus(tmp_path / "one", spec)
        generate_corpus(tmp_path / "two", spec)
        for name in ("pair0_A.pgm", "pair1_B.pgm", "manifest.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes()

    @pytest.mark.parametrize("spec", [CorpusSpec(2, 64, 9), CorpusSpec(2, 128, 3)])
    def test_manifest_rebuilds_the_warped_images(self, tmp_path, spec):
        generate_corpus(tmp_path / "corpus", spec)
        with open(tmp_path / "corpus" / "manifest.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == spec.pair_count
        for row in rows:
            k = int(row["pair"])
            warp = WindWarp(
                *(
                    np.array([float(row[f"{name}{i}"]) for i in range(n)])
                    for name, n in (("a", 3), ("b", 4), ("q", 4))
                )
            )
            warped = warp_image(generate_figure([spec.seed, k], spec.size), warp)
            scaled = np.rint(warped.pixels / warped.pixels.max() * 65535.0)
            write_pgm(scaled, tmp_path / "rebuilt.pgm", maxval=65535, binary=True)
            assert (tmp_path / "rebuilt.pgm").read_bytes() == (
                tmp_path / "corpus" / row["file_b"]
            ).read_bytes()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CorpusSpec(pair_count=1)
        with pytest.raises(ValueError):
            CorpusSpec(size=32)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            CorpusSpec(seed=-1)
        with pytest.raises(ValueError, match=r"size must be in 64\.\.4096, got 4097"):
            CorpusSpec(size=4097)


def test_read_table_converts_the_named_columns_and_names_a_bad_value(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("n,x,name,extra\n3,2.5,a,z\n\"4\",-1e3,b,\n")
    columns = {"n": int, "x": float, "name": str}
    assert corpus_module.read_table(path, columns) == [
        {"n": 3, "x": 2.5, "name": "a"},
        {"n": 4, "x": -1000.0, "name": "b"},
    ]
    path.write_text("n,x,name\n3,2.5,a\n4,2.5e,b\n")
    message = f"{path}: line 3: column 'x': '2.5e' is not a number"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        corpus_module.read_table(path, columns)


def prefix_plan(entries, alphas, alpha_max, points=None):
    """Each image's code at alpha_max and, per alpha, the lengths a sweep cuts."""
    masses = [f.foreground_mass for _, f in entries]
    if points is None:
        points = max(code_length(mass, alpha_max, 10**9) for mass in masses)
    seq = halton(points, 2)
    codes = [encode(f, seq, EncodeParams(alpha=alpha_max)).points for _, f in entries]
    lengths = [
        [min(code_length(mass, a, points), len(c)) for mass, c in zip(masses, codes)]
        for a in alphas
    ]
    return codes, lengths


def delta_median_rows(entries, alphas, alpha_max, degree, points=None):
    """Sweep rows rebuilt one pair and one alpha at a time with delta_median."""
    codes, lengths = prefix_plan(entries, alphas, alpha_max, points)
    rows = []
    for alpha, cut in zip(alphas, lengths):
        if min(cut) < comb(degree + 2, 2):
            rows.append(SweepRow(alpha, None, None, None, None, "invalid"))
            continue
        bands = {True: [], False: []}
        for i, j in permutations(range(len(entries)), 2):
            delta = delta_median(codes[i][: cut[i]], codes[j][: cut[j]], degree).delta
            bands[entries[i][0] == entries[j][0]].append(delta)
        edges = [f(bands[key]) for key in (True, False) for f in (min, max)]
        rows.append(SweepRow(alpha, *edges, "ok"))
    return rows


def image_of(codes, points):
    """Index of the one code whose prefix is ``points``."""
    matches = [np.array_equal(c[: len(points)], points) for c in codes]
    (index,) = np.flatnonzero(matches)
    return index


def test_sweep_rows_match_direct_delta_median(tmp_path):
    generate_corpus(tmp_path, CorpusSpec(pair_count=2, size=64, seed=7))
    entries = load_corpus(tmp_path, Polarity.LIGHT_ON_DARK, 1e-4)
    assert [pair for pair, _ in entries] == [0, 0, 1, 1]
    rows = sweep(entries, [0.01, 0.2, 0.4], 3)
    # at alpha=0.01 a 64x64 figure's code is shorter than the cubic basis
    assert rows[0] == SweepRow(0.01, None, None, None, None, "invalid")
    assert [row.status for row in rows[1:]] == ["ok", "ok"]
    assert rows == delta_median_rows(entries, [0.01, 0.2, 0.4], 0.4, 3)


@pytest.fixture(scope="module")
def six_images(tmp_path_factory):
    """Entries of a 3-pair 64x64 corpus."""
    out = tmp_path_factory.mktemp("corpus")
    generate_corpus(out, CorpusSpec(pair_count=3, size=64, seed=11))
    return load_corpus(out, Polarity.LIGHT_ON_DARK, 1e-4)


def test_sweep_pairs_equal_delta_median_from_exactly_q_points(six_images, one_cpu):
    # where the shortest code has exactly q = 10 points the fit interpolates
    # and delta is pure rounding, so a fit of many items must repeat a
    # one-pair fit bit for bit to give the same row
    entries = six_images
    lightest = min(f.foreground_mass for _, f in entries)
    alphas = [10.0 / lightest, 0.1, 0.2, 0.3]
    fits = []
    fit = matcher_module._fit

    def recording_fit(V, W, d, a, b, basis=None, **kwargs):
        result = fit(V, W, d, a, b, basis, **kwargs)
        fits.append((V, W, d, a, b, result))
        return result

    with one_cpu() as patch:
        patch.setattr(matcher_module, "_fit", recording_fit)
        rows = sweep(entries, alphas, 3)
    assert [row.status for row in rows] == ["ok"] * 4
    walked = [W.shape[2] for _, W, *_ in fits]
    assert walked == sorted(walked) and walked[0] == 10  # one walk, up from q
    codes, lengths = prefix_plan(entries, alphas, 0.3)
    fitted = []
    for V, W, d, a, b, result in fits:
        for i, (s, t) in enumerate(zip(a, b)):
            assert result.delta[i] == delta_median(V[s].T, W[t].T, d).delta
            source, target = image_of(codes, V[s].T), image_of(codes, W[t].T)
            fitted.append((source, target, V.shape[2]))
    # every (alpha, pair) has its delta from one fitted item, and no
    # (source, target, length) is fitted twice
    pairs = list(permutations(range(len(entries)), 2))
    want = {(i, j, min(cut[i], cut[j])) for cut in lengths for i, j in pairs}
    assert len(fitted) == len(set(fitted)) and set(fitted) == want
    assert len(set(walked)) == len({m for *_, m in want})


def prefix_boxes(entries, alphas):
    """The (image, bounding box) and (image, length) of every fitted source."""
    codes, lengths = prefix_plan(entries, alphas, max(alphas))
    boxes, sources = set(), set()
    for cut in lengths:
        for i, j in permutations(range(len(entries)), 2):
            prefix = codes[i][: min(cut[i], cut[j])]
            boxes.add((i, *prefix.min(axis=0), *prefix.max(axis=0)))
            sources.add((i, len(prefix)))
    return boxes, sources


def recorded_bases(patch):
    """Patch in a spy; it lists the sources of each basis built."""
    built = []
    power_basis = matcher_module._power_basis

    def recording_power_basis(s, d):
        built.append(s.shape[0])
        return power_basis(s, d)

    patch.setattr(matcher_module, "_power_basis", recording_power_basis)
    return built


def test_sweep_builds_one_basis_per_image_and_length(six_images, one_cpu):
    # one basis per (image, prefix bounding box) over the whole sweep: a
    # box serves every length up to the point that widens it
    alphas = [0.1, 0.2, 0.3]
    with one_cpu() as patch:
        built = recorded_bases(patch)
        rows = sweep(six_images, alphas, 3)
    assert [row.status for row in rows] == ["ok"] * 3
    boxes, sources = prefix_boxes(six_images, alphas)
    assert sum(built) == len(boxes) < len(sources)


def test_a_descending_walk_builds_one_basis_per_image_and_box(
    six_images, monkeypatch
):
    # the forked child's walk, down from the longest length, in the only
    # process: a live basis serves only the lengths of its own box, so a
    # shorter length maps its box anew, once, and the rows are delta_median's
    alphas = [0.1, 0.2, 0.3]
    walked, fit = [], matcher_module._fit

    @contextlib.contextmanager
    def descending(lengths, found):
        yield lengths[::-1]

    def recording_fit(V, W, d, a, b, basis=None, **kwargs):
        walked.append(V.shape[2])
        return fit(V, W, d, a, b, basis, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(matcher_module, "_shares", descending)
        patch.setattr(matcher_module, "_fit", recording_fit)
        built = recorded_bases(patch)
        rows = sweep(six_images, alphas, 3)
    assert walked == sorted(walked, reverse=True) and len(set(walked)) > 1
    boxes, sources = prefix_boxes(six_images, alphas)
    assert sum(built) == len(boxes) < len(sources)
    assert rows == delta_median_rows(six_images, alphas, 0.3, 3)


@pytest.mark.parametrize("degree", [0, 1, 3, 5])
def test_sweep_rows_equal_delta_median_rows(six_images, degree):
    # unsorted and repeated alphas; at degree 5 (q = 21) alpha 0.05 is invalid
    alphas = [0.3, 0.05, 0.2, 0.05, 0.3, 0.12]
    rows = sweep(six_images, alphas, degree)
    assert rows == delta_median_rows(six_images, alphas, 0.3, degree)
    assert [row.alpha for row in rows] == alphas


def test_sweep_fits_tied_lengths_once(six_images, one_cpu):
    # points=60 caps every code at 60 from alpha 0.2 on, so pairs of several
    # alphas share one length; each distinct (pair, length) is fitted once
    alphas = [0.05, 0.2, 0.25, 0.3]
    codes, lengths = prefix_plan(six_images, alphas, 0.3, points=60)
    assert [max(cut) for cut in lengths] == [max(lengths[0]), 60, 60, 60]
    items = []
    fit = matcher_module._fit

    def recording_fit(V, W, d, a, b, basis=None, **kwargs):
        items.extend((V.shape[2], s, t) for s, t in zip(a, b))
        return fit(V, W, d, a, b, basis, **kwargs)

    with one_cpu() as patch:
        patch.setattr(matcher_module, "_fit", recording_fit)
        rows = sweep(six_images, alphas, 3, points=60)
    assert rows == delta_median_rows(six_images, alphas, 0.3, 3, points=60)
    pairs = list(permutations(range(len(six_images)), 2))
    keys = {(min(cut[i], cut[j]), i, j) for cut in lengths for i, j in pairs}
    assert len(items) == len(keys)
    assert sweep(six_images, [], 3) == []


@pytest.fixture(scope="module")
def default_images(tmp_path_factory):
    """Entries of the default gen-corpus corpus: 6 pairs at 128x128."""
    out = tmp_path_factory.mktemp("default_corpus")
    generate_corpus(out, CorpusSpec())
    return load_corpus(out, Polarity.LIGHT_ON_DARK, 1e-4)


def test_sweep_sequence_is_the_longest_code_under_any_cap(default_images, monkeypatch):
    # points only caps the lengths: a cap above every code changes no row,
    # and the sequence is as long as the longest code, not as the cap
    alphas = [0.01 * i for i in range(1, 51)]
    rows = sweep(default_images, alphas, 3)
    requested = []
    build = quasirandom_module.halton

    def recording_halton(m, n=2):
        requested.append(m)
        return build(m, n)

    monkeypatch.setattr(quasirandom_module, "halton", recording_halton)
    capped = sweep(default_images, alphas, 3, points=corpus_module.MAX_POINTS)
    longest = max(len(code) for code in prefix_plan(default_images, [], 0.5)[0])
    assert requested == [longest] == [783]
    assert capped == rows


def fits_by_length(entries, alphas, degree, one_cpu):
    """The item count of every _fit call the sweep makes, by code length."""
    calls = {}
    fit = matcher_module._fit

    def recording_fit(V, W, d, a, b, basis=None, **kwargs):
        calls.setdefault(V.shape[2], []).append(len(a))
        return fit(V, W, d, a, b, basis, **kwargs)

    with one_cpu() as patch:
        patch.setattr(matcher_module, "_fit", recording_fit)
        rows = sweep(entries, alphas, degree)
    assert {row.status for row in rows} == {"ok"}
    return calls


def test_sweep_fits_a_length_in_one_call_under_the_floor(default_images, one_cpu):
    # at 128^2 half the live bases (12 images x 10 rows x 783 points / 2)
    # are below the floor, so the floor caps every fit; a length whose
    # items' bases fit under it is one call (387 calls for 336 lengths; the
    # half-live rule alone split the same items into 645)
    alphas = [0.01 * i for i in range(1, 51)]
    calls = fits_by_length(default_images, alphas, 3, one_cpu)
    q, floor = 10, matcher_module.FIT_CELLS_FLOOR
    longest = max(len(code) for code in prefix_plan(default_images, [], 0.5)[0])
    assert 12 * q * longest // 2 < floor
    for m, items in calls.items():
        assert max(items) * q * m <= floor
        if sum(items) * q * m <= floor:
            assert len(items) == 1, f"length {m} split: {items}"
        else:  # split only as far as the cap asks
            assert len(items) == -(-sum(items) // max(1, floor // (q * m)))
    half_live_runs = sum(
        -(-sum(items) // max(1, 12 * longest // (2 * m))) for m, items in calls.items()
    )
    assert sum(map(len, calls.values())) < half_live_runs


def test_sweep_keeps_half_the_live_bases_above_the_floor(default_images, one_cpu):
    # at alpha 2.5 the live bases are 12 x 10 x 3915 cells, and half of
    # them exceed the floor: that half bounds every fit, as at 512^2 and up
    calls = fits_by_length(default_images, [0.5, 1.5, 2.5], 3, one_cpu)
    codes, _ = prefix_plan(default_images, [], 2.5)
    q, longest = 10, max(len(code) for code in codes)
    cap = 12 * q * longest // 2
    assert cap > matcher_module.FIT_CELLS_FLOOR
    cells = [k * q * m for m, items in calls.items() for k in items]
    assert max(cells) <= cap and max(cells) > matcher_module.FIT_CELLS_FLOOR


def diagonal_field(shift):
    """A one-pixel diagonal line at 128x128: its code is a strip 1/128 wide."""
    px = np.zeros((128, 128))
    np.fill_diagonal(px[:, shift:], 255.0)
    img = normalize(GrayImage(pixels=px), Polarity.LIGHT_ON_DARK)
    return make_density_field(img, 1e-4)


@pytest.fixture(scope="module")
def diagonals_and_figures():
    """Entries of two one-pixel diagonals (pair 0) and two figures (pair 1)."""
    figures = [
        normalize(generate_figure(s, 128), Polarity.LIGHT_ON_DARK) for s in (5, 6)
    ]
    entries = [(0, diagonal_field(0)), (0, diagonal_field(3))]
    return entries + [(1, make_density_field(img, 1e-4)) for img in figures]


def test_sweep_takes_the_svd_fallback_item_by_item(
    diagonals_and_figures, one_cpu, two_processes
):
    # the diagonals' cubic bases are past MAX_CONDITION, so their items go to
    # the SVD inside fits that also hold well-conditioned figure items; each
    # fit warns once, counting its own SVD items
    entries = diagonals_and_figures
    alphas = [0.1, 0.2, 0.3]
    fits = []
    fit = matcher_module._fit

    def recording_fit(V, W, d, a, b, basis=None, **kwargs):
        result = fit(V, W, d, a, b, basis, **kwargs)
        fits.append((V, W, d, a, b, result))
        return result

    with one_cpu() as patch:
        patch.setattr(matcher_module, "_fit", recording_fit)
        with pytest.warns(RuntimeWarning) as record:
            rows = sweep(entries, alphas, 3)
    # delta_median calls _fit too, so each item is refitted alone only now
    expected = []
    for V, W, d, a, b, result in fits:
        alone = 0
        for i, (s, t) in enumerate(zip(a, b)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert result.delta[i] == delta_median(V[s].T, W[t].T, d).delta
            alone += len(caught)
        if alone:
            expected.append(f"went to the SVD for {alone} of {len(a)} items")
    assert expected and len(record) == len(expected)
    for warning, want in zip(record, expected):
        assert want in str(warning.message)
    with pytest.warns(RuntimeWarning, match="went to the SVD"):
        assert rows == delta_median_rows(entries, alphas, 0.3, 3)
    texts = [str(warning.message) for warning in record]
    # unpatched, each warning names the sweep's caller, and two processes
    # warn as one did
    with two_processes() as forks:
        with pytest.warns(RuntimeWarning, match="went to the SVD") as record:
            assert sweep(entries, alphas, 3) == rows
    assert {warning.filename for warning in record} == {__file__}
    assert len(forks) == 1 and [str(warning.message) for warning in record] == texts


@pytest.mark.parametrize("degree", [0, 1, 3, 5])
def test_two_processes_give_the_one_process_rows(
    default_images, one_cpu, two_processes, degree
):
    alphas = [0.3, 0.05, 0.5, 0.2, 0.05, 0.3, 0.12]
    for points in (None, 60):
        with one_cpu():
            alone = sweep(default_images, alphas, degree, points)
        with two_processes() as forks:
            shared = sweep(default_images, alphas, degree, points)
        assert shared == alone and len(forks) == 1
    with pytest.raises(ChildProcessError):  # every child is reaped
        os.waitpid(-1, os.WNOHANG)


def test_two_processes_warn_as_one(six_images, one_cpu, two_processes, monkeypatch):
    # every fit warns, naming its length: the child stops at its first fit,
    # at the longest length, and the parent walks and warns at every length
    fit = matcher_module._fit

    def warning_fit(V, W, d, a, b, basis=None, **kwargs):
        warnings.warn(f"fit at length {V.shape[2]}", UserWarning, stacklevel=4)
        return fit(V, W, d, a, b, basis, **kwargs)

    def heard():
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            sweep(six_images, [0.1, 0.2, 0.3], 3)
        return [(str(w.message), w.category, w.filename, w.lineno) for w in record]

    monkeypatch.setattr(matcher_module, "_fit", warning_fit)
    with one_cpu():
        alone = heard()
    with two_processes() as forks:
        shared = heard()
    assert len(forks) == 1 and shared == alone
    assert {filename for _, _, filename, _ in alone} == {__file__}


def test_two_processes_print_a_repeated_warning_as_one(
    six_images, one_cpu, two_processes, monkeypatch, capsys
):
    # every fit warns one text, in both walks: Python's default filter
    # prints it once at the sweep's calling line, in one process and in two
    fit = matcher_module._fit

    def warning_fit(V, W, d, a, b, basis=None, **kwargs):
        warnings.warn("every fit warns this", RuntimeWarning, stacklevel=4)
        return fit(V, W, d, a, b, basis, **kwargs)

    def to_stderr(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno))

    def stderr():
        with warnings.catch_warnings():  # a fresh registry for each sweep
            warnings.simplefilter("default")
            warnings.showwarning = to_stderr
            sweep(six_images, [0.1, 0.2, 0.3], 3)
        return capsys.readouterr().err

    monkeypatch.setattr(matcher_module, "_fit", warning_fit)
    with one_cpu():
        alone = stderr()
    with two_processes() as forks:
        shared = stderr()
    assert len(forks) == 1 and shared == alone
    assert alone.count("every fit warns this") == 1 and __file__ in alone


def coinciding_invert(entries, k):
    """``invert`` with the heaviest image's target scale 0 past 2k points.

    Its first k points (k even), rounded to 1/64, are mirrored in pairs
    about the image centre, and every later point is the centre. The sums
    are exact, so in a prefix of more than 2k points most points lie on
    their centroid, and their median distance to it is 0.
    """
    heaviest = max(entries, key=lambda entry: entry[1].foreground_mass)[1]
    centre = np.array(heaviest.f.shape[::-1]) / 2.0  # (x, y)

    def inverted(field, u):
        code = invert(field, u)
        if field is not heaviest:
            return code
        points = np.tile(centre, (len(code), 1))
        offsets = np.round((code[: k // 2] - centre) * 64.0) / 64.0
        points[0:k:2] += offsets
        points[1:k:2] -= offsets
        return points

    return inverted


def walked_lengths(entries, alphas):
    """The common lengths a sweep walks, ascending."""
    _, lengths = prefix_plan(entries, alphas, max(alphas))
    pairs = permutations(range(len(entries)), 2)
    return sorted({min(cut[i], cut[j]) for i, j in pairs for cut in lengths})


def after_the_child(forks, walked, V):
    """Record a parent's fit of V; its first waits for the child to exit.

    The wait leaves the child unreaped (WNOWAIT), for the sweep to reap, and
    the child's walk down from the longest length is then over before the
    parent's walk up from the shortest begins.
    """
    if forks and not walked:
        os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT)
    walked.append(V.shape[2])


def in_order(walked):
    """The distinct lengths of ``walked`` fits, in the order first fitted."""
    return list(dict.fromkeys(walked))


def test_a_warning_child_leaves_the_parent_the_lengths_up_to_it(
    diagonals_and_figures, one_cpu, two_processes, monkeypatch
):
    # the diagonals' items warn, and the figures' longer codes do not: the
    # child walks down without warning to the longest length that warns and
    # stops there, and the parent walks up to that length and no further
    entries, alphas = diagonals_and_figures, [0.1, 0.2, 0.3, 0.4, 0.5]
    lengths = walked_lengths(entries, alphas)
    codes, cuts = prefix_plan(entries, alphas, 0.5)
    warning = set()
    for cut in cuts:
        for i, j in permutations(range(len(entries)), 2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                delta_median(codes[i][: cut[i]], codes[j][: cut[j]], 3)
            if caught:
                warning.add(min(cut[i], cut[j]))
    fit, parent, walked, forks = matcher_module._fit, os.getpid(), [], []

    def waiting_fit(V, W, d, a, b, basis=None, **kwargs):
        if os.getpid() == parent:
            after_the_child(forks, walked, V)
        return fit(V, W, d, a, b, basis, **kwargs)

    def heard():
        walked.clear()
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            rows = sweep(entries, alphas, 3)
        heard = [(str(w.message), w.category, w.filename, w.lineno) for w in record]
        return rows, heard

    monkeypatch.setattr(matcher_module, "_fit", waiting_fit)
    with one_cpu():
        alone = heard()
    with two_processes() as forks:
        shared = heard()
    assert len(forks) == 1 and shared == alone and alone[1]
    assert max(warning) < lengths[-1]
    assert in_order(walked) == [m for m in lengths if m <= max(warning)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def last_frame(info):
    """The function a caught exception was raised in."""
    return traceback.extract_tb(info.tb)[-1].name


@pytest.mark.parametrize("share", ["parent", "child"])
def test_an_error_in_either_process_reaches_the_caller(
    six_images, one_cpu, two_processes, monkeypatch, share
):
    # the degenerate target's items fail from the shortest lengths, where
    # the parent starts, or only at the longest, where the child starts
    alphas = [0.1, 0.2, 0.3]
    walked = walked_lengths(six_images, alphas)
    k = 10 if share == "parent" else (walked[-1] - 1) // 4 * 2
    monkeypatch.setattr(corpus_module, "invert", coinciding_invert(six_images, k))
    message = "^degenerate target scale: target points coincide$"
    with one_cpu(), pytest.raises(ValueError, match=message) as alone:
        sweep(six_images, alphas, 1)
    with two_processes() as forks, pytest.raises(ValueError, match=message) as shared:
        sweep(six_images, alphas, 1)
    # a child that fails leaves its lengths from there to the parent, whose
    # own walk raises
    assert len(forks) == 1 and last_frame(alone) == last_frame(shared) == "_fit"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_interrupted_parent_kills_and_reaps_the_child(
    six_images, two_processes, monkeypatch
):
    shortest = walked_lengths(six_images, [0.1, 0.2, 0.3])[0]
    fit = matcher_module._fit

    def interrupted_fit(V, W, d, a, b, basis=None, **kwargs):
        if V.shape[2] == shortest:  # the parent's first fit
            raise KeyboardInterrupt
        return fit(V, W, d, a, b, basis, **kwargs)

    monkeypatch.setattr(matcher_module, "_fit", interrupted_fit)
    with two_processes() as forks, pytest.raises(KeyboardInterrupt):
        sweep(six_images, [0.1, 0.2, 0.3], 3)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "signum", [signal.SIGKILL, signal.SIGTERM], ids=lambda signum: signum.name
)
def test_a_killed_child_hands_its_share_back(
    six_images, one_cpu, two_processes, monkeypatch, signum
):
    # the child finishes the two longest lengths and dies at the third; the
    # parent, walking after the child's exit, walks up to and through that
    # length and stops at the next, and its rows are one process's
    alphas = [0.1, 0.2, 0.3]
    lengths = walked_lengths(six_images, alphas)
    fit, parent, walked, forks = matcher_module._fit, os.getpid(), [], []

    def dying_fit(V, W, d, a, b, basis=None, **kwargs):
        if os.getpid() == parent:
            after_the_child(forks, walked, V)
        elif V.shape[2] == lengths[-3]:
            os.kill(os.getpid(), signum)
        return fit(V, W, d, a, b, basis, **kwargs)

    with one_cpu():
        alone = sweep(six_images, alphas, 3)
    monkeypatch.setattr(matcher_module, "_fit", dying_fit)
    with two_processes() as forks:
        assert sweep(six_images, alphas, 3) == alone
    assert len(forks) == 1 and in_order(walked) == lengths[:-2]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_warning_in_the_child_share_comes_from_the_parent(
    six_images, one_cpu, two_processes, monkeypatch
):
    # only the third longest length warns: the child finishes the two
    # longest and stops there, and the parent, walking after the child's
    # exit, walks up to and through it and warns as one process did
    alphas = [0.1, 0.2, 0.3]
    lengths = walked_lengths(six_images, alphas)
    fit, parent, walked, forks = matcher_module._fit, os.getpid(), [], []

    def warning_fit(V, W, d, a, b, basis=None, **kwargs):
        if os.getpid() == parent:
            after_the_child(forks, walked, V)
        if V.shape[2] == lengths[-3]:
            warnings.warn(f"fit at length {lengths[-3]}", UserWarning, stacklevel=4)
        return fit(V, W, d, a, b, basis, **kwargs)

    def heard():
        walked.clear()
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            rows = sweep(six_images, alphas, 3)
        heard = [(str(w.message), w.category, w.filename, w.lineno) for w in record]
        return rows, heard

    monkeypatch.setattr(matcher_module, "_fit", warning_fit)
    with one_cpu():
        alone = heard()
    with two_processes() as forks:
        shared = heard()
    assert len(forks) == 1 and shared == alone
    assert in_order(walked) == lengths[:-2]
    assert alone[1] and {filename for _, _, filename, _ in alone[1]} == {__file__}
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_interrupt_in_what_the_child_left_reaps_it_once(
    six_images, two_processes, monkeypatch
):
    # the child warns at the third longest length, past its first, and
    # exits; the parent, walking after the child's exit, is interrupted
    # there. Killing the exited child must raise nothing, so the interrupt
    # reaches the caller, and the child is reaped once
    alphas = [0.1, 0.2, 0.3]
    lengths = walked_lengths(six_images, alphas)
    fit, kill, parent = matcher_module._fit, os.kill, os.getpid()
    walked, kills, forks = [], [], []

    def failing_fit(V, W, d, a, b, basis=None, **kwargs):
        if os.getpid() == parent:
            after_the_child(forks, walked, V)
        if V.shape[2] == lengths[-3]:
            if os.getpid() == parent:
                raise KeyboardInterrupt
            warnings.warn("the child stops here", UserWarning)
        return fit(V, W, d, a, b, basis, **kwargs)

    def recorded_kill(pid, signum):
        kills.append(pid)
        kill(pid, signum)

    monkeypatch.setattr(matcher_module, "_fit", failing_fit)
    monkeypatch.setattr(os, "kill", recorded_kill)
    with two_processes() as forks, pytest.raises(KeyboardInterrupt):
        sweep(six_images, alphas, 3)
    assert len(forks) == 1 and kills == forks
    assert in_order(walked) == lengths[:-2]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


FORKS_OF_EACH_SWEEP = """
import os, sys, threading
from densitycode import CorpusSpec, Polarity, generate_corpus, load_corpus, sweep

forks, fork = [], os.fork

def counted_fork():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid

def forks_of(*args):
    forks.clear()
    sweep(entries, *args)
    return len(forks)

os.fork = counted_fork
generate_corpus(sys.argv[1], CorpusSpec(pair_count=3, size=64, seed=11))
entries = load_corpus(sys.argv[1], Polarity.LIGHT_ON_DARK, 1e-4)
counts = [forks_of([0.1, 0.2], 3), forks_of([0.3], 3, 10)]  # 10 points: one length
stop = threading.Event()
thread = threading.Thread(target=stop.wait)
thread.start()
counts.append(forks_of([0.1, 0.2], 3))
stop.set()
thread.join()
os.sched_getaffinity = lambda pid: {0}
counts.append(forks_of([0.1, 0.2], 3))
print(*counts)
"""


def test_sweep_forks_only_alone_on_two_cpus_over_two_lengths(tmp_path):
    # a fresh interpreter with one BLAS thread has no thread but its own; a
    # second thread, one length or one usable CPU keeps the walk in process
    src = str(Path(densitycode.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"), "1"))
    cmd = [sys.executable, "-c", FORKS_OF_EACH_SWEEP, str(tmp_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    two_cpus = len(os.sched_getaffinity(0)) >= 2
    assert proc.stdout.split() == ["1" if two_cpus else "0", "0", "0", "0"]


def test_the_fork_rule_counts_threads_on_any_host(monkeypatch):
    # on two usable CPUs, whatever the host has: a second thread (an
    # unpinned BLAS pool is one) keeps the walk in process, and a fresh
    # interpreter with one BLAS thread, which has no other, forks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert not matcher_module._walk_in_two(5)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    body = (
        "import os\n"
        "from densitycode.matcher import _walk_in_two\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "print(_walk_in_two(5))\n"
    )
    src = str(Path(densitycode.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env.update(dict.fromkeys(blas, "1"))
    cmd = [sys.executable, "-c", body]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]


def test_sweep_encodes_at_its_largest_alpha(six_images):
    # an unsorted grid: every alpha's codes are prefixes of the largest's
    alphas = [0.4, 0.1, 0.36]
    rows = sweep(six_images, alphas, 3)
    assert rows == delta_median_rows(six_images, alphas, 0.4, 3)
    # where the sequence caps both lengths, the codes are the same
    capped = sweep(six_images, [0.4, 0.36], 3, points=60)
    assert capped[0][1:] == capped[1][1:] and capped[0].status == "ok"


@pytest.mark.parametrize("degree", [0, 3])
def test_sweep_caps_only_the_codes_longer_than_points(
    six_images, one_cpu, two_processes, degree
):
    # a cap between the shortest and the longest code at the largest alpha
    # cuts only some codes: the stack's rows end at different lengths, some
    # at the cap and some at their own length
    alphas = [0.3, 0.1, 0.2]
    codes, _ = prefix_plan(six_images, [], 0.3)
    shortest, longest = min(map(len, codes)), max(map(len, codes))
    points = (shortest + longest) // 2
    assert shortest < points < longest
    expected = delta_median_rows(six_images, alphas, 0.3, degree, points)
    assert all(row.status == "ok" for row in expected)
    with one_cpu():
        assert sweep(six_images, alphas, degree, points) == expected
    with two_processes() as forks:
        assert sweep(six_images, alphas, degree, points) == expected
    assert len(forks) == 1


@pytest.mark.parametrize("pairs", [[], [0, 0], [0, 1, 2]])
def test_sweep_needs_a_related_and_an_unrelated_pair(pairs):
    field = small_field()
    with pytest.raises(ValueError, match="no related or no unrelated pair"):
        sweep([(pair, field) for pair in pairs], [1e308], 3)


def test_sweep_rejects_a_negative_degree():
    entries = [(pair, small_field()) for pair in (0, 0, 1)]
    with pytest.raises(ValueError, match="^degree must be >= 0$"):
        sweep(entries, [0.1], -1)


def test_sweep_names_its_own_parameters(monkeypatch):
    # the stub stands in for halton, so no sequence is built
    def halton_stub(m, n=2):
        raise MemoryError(f"halton({m}, {n}) not built")

    monkeypatch.setattr(quasirandom_module, "halton", halton_stub)
    entries = [(pair, small_field()) for pair in (0, 0, 1)]
    with pytest.raises(ValueError, match=r"^alpha=1e\+308 asks for codes over"):
        sweep(entries, [0.1, 1e308, 0.5], 3)
    limit = corpus_module.MAX_POINTS
    with pytest.raises(ValueError, match=f"^points={limit + 1} exceeds the limit"):
        sweep(entries, [0.1], 3, points=limit + 1)
    with pytest.raises(ValueError, match="^points must be >= 1, got 0$"):
        sweep(entries, [0.1], 3, points=0)
    with pytest.raises(ValueError, match="^alpha must be finite and > 0$"):
        sweep(entries, [0.1, float("nan")], 3)


def small_field():
    """The density field of one small figure."""
    img = normalize(generate_figure(3, 64), Polarity.LIGHT_ON_DARK)
    return make_density_field(img, 1e-4)


def test_load_corpus_needs_two_pairs(tmp_path):
    generate_corpus(tmp_path, CorpusSpec(pair_count=2, size=64, seed=7))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("".join(manifest.read_text().splitlines(True)[:2]))
    message = "^corpus incomplete: need at least two pairs$"
    with pytest.raises(ValueError, match=message):
        load_corpus(tmp_path, Polarity.LIGHT_ON_DARK, 1e-4)


def test_load_corpus_reports_missing_image(tmp_path):
    generate_corpus(tmp_path, CorpusSpec(pair_count=2, size=64, seed=7))
    (tmp_path / "pair1_B.pgm").unlink()
    with pytest.raises(ValueError, match="corpus incomplete: missing .*pair1_B.pgm"):
        load_corpus(tmp_path, Polarity.LIGHT_ON_DARK, 1e-4)
