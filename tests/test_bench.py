"""Tests for the timing grid and the three-term regression."""

import math

import pytest

from densitycode import TimingSample, fit_model, run_grid


def planted_model(a, b, c):
    def predict(H, W, m):
        hw = H * W
        return a * hw + b * m * (math.log2(hw) - 2.0) + c * m * W

    return predict


def synthetic_samples(a, b, c, sizes=(16, 64, 256), lengths=(16, 128, 1024)):
    predict = planted_model(a, b, c)
    return [
        TimingSample(H=h, W=w, m=m, reps=10, median_ms=predict(h, w, m))
        for h in sizes
        for w in sizes
        for m in lengths
    ]


def test_noise_free_recovery():
    planted = (0.6853e-4, 3.8459e-4, 0.3943e-4)
    model = fit_model(synthetic_samples(*planted))
    for got, want in zip((model.a, model.b, model.c), planted):
        assert abs(got - want) <= 1e-6 * want
    assert model.r == pytest.approx(1.0, abs=1e-9)
    assert model.rmse_ms <= 1e-9


def test_recovery_with_zero_coefficient():
    planted = (2e-4, 0.0, 5e-4)
    model = fit_model(synthetic_samples(*planted))
    assert abs(model.a - planted[0]) <= 1e-6 * planted[0]
    assert model.b == pytest.approx(0.0, abs=1e-12)
    assert abs(model.c - planted[2]) <= 1e-6 * planted[2]


def test_prediction_formula():
    # frozen spot value: 200x200 image with 2048 points under known weights
    model_coeffs = (0.6853e-4, 3.8459e-4, 0.3943e-4)
    samples = synthetic_samples(*model_coeffs)
    model = fit_model(samples)
    H, W, m = 200, 200, 2048
    predicted = (
        model.a * H * W
        + model.b * m * (math.log2(H * W) - 2.0)
        + model.c * m * W
    )
    assert predicted == pytest.approx(29.36, abs=0.05)


def test_degenerate_design_rejected():
    predict = planted_model(1e-4, 1e-4, 1e-4)
    flat = [
        TimingSample(H=64, W=w, m=m, reps=5, median_ms=predict(64, w, m))
        for w in (16, 32, 64, 128)
        for m in (16, 32, 64)
    ]
    with pytest.raises(ValueError, match="factor H"):
        fit_model(flat)


def test_too_few_samples_rejected():
    predict = planted_model(1e-4, 1e-4, 1e-4)
    few = [
        TimingSample(H=h, W=w, m=16, reps=5, median_ms=predict(h, w, 16))
        for h in (16, 32)
        for w in (16, 32)
    ]
    with pytest.raises(ValueError, match="10 samples"):
        fit_model(few)


def test_run_grid_produces_positive_medians():
    samples = run_grid([16, 32], [16, 32], [16, 32], reps=5)
    assert len(samples) == 8
    for s in samples:
        assert s.median_ms > 0.0
        assert s.reps == 5


def test_run_grid_validates_arguments():
    with pytest.raises(ValueError):
        run_grid([8], [16], [16], reps=5)
    with pytest.raises(ValueError):
        run_grid([16], [16], [16], reps=2)
