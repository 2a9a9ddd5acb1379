"""scipy as a test-only oracle for the figure blur and the timing fit.

The package computes both in numpy: the blur as banded matrix products
with scipy's Gaussian kernel, the timing fit as exact three-column NNLS.
These tests compare them with `gaussian_filter` and `scipy.optimize.nnls`;
they skip where scipy is not installed.
"""

import itertools
import math

import numpy as np
import pytest

scipy_ndimage = pytest.importorskip("scipy.ndimage")
scipy_optimize = pytest.importorskip("scipy.optimize")

from densitycode import GrayImage, TimingSample, fit_model, generate_figure
from densitycode.bench import _nnls, _regressors
from densitycode.corpus import (
    _MASS_FLOOR_FRACTION,
    _blur,
    _grow_skeleton,
    _render_segments,
)

# the cells of criterion 07's run_grid: 6 x 6 sizes by 7 lengths, 252 rows
SIZES = (16, 32, 64, 128, 256, 512)
LENGTHS = (16, 32, 64, 128, 256, 512, 1024)
DESIGN = np.array(
    [_regressors(h, w, m) for h, w, m in itertools.product(SIZES, SIZES, LENGTHS)]
)


# at 72, 4 sigma = 4.5 is where scipy's radius int(4 sigma + 0.5) rounds up
@pytest.mark.parametrize("size", [64, 72, 128, 1024])
def test_blur_equals_gaussian_filter(size):
    canvas = np.random.default_rng(size).random((size, size))
    got = _blur(canvas.copy(), size / 64.0)
    want = scipy_ndimage.gaussian_filter(canvas, sigma=size / 64.0, mode="constant")
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)


def scipy_figure(seed, size):
    """Reference: generate_figure with scipy's gaussian_filter as the blur."""
    segments = _grow_skeleton(np.random.default_rng(seed), size)
    width_scale = 1.0
    for _ in range(10):
        canvas = scipy_ndimage.gaussian_filter(
            _render_segments(segments, size, width_scale),
            sigma=size / 64.0,
            mode="constant",
        )
        peak = float(canvas.max())
        if peak > 0.0 and canvas.sum() / peak > _MASS_FLOOR_FRACTION * size * size:
            return GrayImage(pixels=canvas * (255.0 / peak))
        width_scale *= 1.3
    raise AssertionError("no width scale reached the mass floor")


@pytest.mark.parametrize("seed, size", [(0, 64), (7, 128), ([3, 1], 128), (11, 256)])
def test_figure_quantizes_like_gaussian_filter(seed, size):
    def quantized(img):  # as generate_corpus writes a figure
        return np.rint(img.pixels / img.pixels.max() * 65535.0).astype(np.uint16)

    got = quantized(generate_figure(seed, size))
    assert got.tobytes() == quantized(scipy_figure(seed, size)).tobytes()


def residual(A, t, x):
    return float(np.linalg.norm(t - A @ x))


def test_nnls_residual_equals_scipy_on_the_grid_design():
    rng = np.random.default_rng(2024)
    scale = 1.0 / DESIGN.mean(axis=0)
    for _ in range(300):
        planted = rng.normal(size=3) * scale
        t = DESIGN @ planted + rng.normal(size=len(DESIGN)) * rng.uniform(0.01, 10.0)
        got = _nnls(DESIGN, t)
        want, _ = scipy_optimize.nnls(DESIGN, t)
        assert np.all(got >= 0.0)
        ours, theirs = residual(DESIGN, t, got), residual(DESIGN, t, want)
        assert abs(ours - theirs) <= 1e-12 * theirs


def test_fit_model_equals_scipy_nnls_on_positive_timings():
    rng = np.random.default_rng(7)
    cells = list(itertools.product(SIZES, SIZES, LENGTHS))
    for _ in range(20):
        planted = rng.uniform(0.0, 1.0, 3) / DESIGN.mean(axis=0)
        noise = rng.lognormal(0.0, 0.3, len(cells))
        times = (DESIGN @ planted) * noise
        samples = [
            TimingSample(H=h, W=w, m=m, reps=10, median_ms=float(t))
            for (h, w, m), t in zip(cells, times)
        ]
        model = fit_model(samples)
        want, _ = scipy_optimize.nnls(DESIGN, times)
        got = np.array([model.a, model.b, model.c])
        assert math.isclose(
            residual(DESIGN, times, got), residual(DESIGN, times, want), rel_tol=1e-12
        )
