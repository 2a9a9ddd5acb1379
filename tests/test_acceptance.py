"""Acceptance suite: one test per criterion, one printed line per result.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines as they complete. The timing-sensitive criteria measure wall-clock
runtime and assert their stated budgets.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from densitycode import (
    CorpusSpec,
    GrayImage,
    NormalizedImage,
    Polarity,
    TimingSample,
    code_length,
    delta_median,
    encode,
    fit_model,
    generate_corpus,
    generate_figure,
    halton,
    least_squares_fit,
    load_corpus,
    make_density_field,
    normalize,
    run_grid,
    sweep,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} [{status}] {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def test_criterion_01_uniform_field_closed_form():
    t0 = time.perf_counter()
    g = np.ones((64, 64))
    nimg = NormalizedImage(
        pixels=g, foreground_mass=float(g.sum()), polarity=Polarity.LIGHT_ON_DARK
    )
    field = make_density_field(nimg, 1e-4)
    seq = halton(256, 2)
    code = encode(field, seq)
    worst = float(np.max(np.abs(code.points - seq.points * 64.0)))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "uniform-field closed form",
        worst <= 1e-9 and elapsed < 1.0,
        f"max err {worst:.3g}, {elapsed:.2f}s",
    )


def test_criterion_02_halton_oracle():
    def oracle(t: int, base: int) -> float:
        digits = []
        while t > 0:
            digits.append(t % base)
            t //= base
        acc = Fraction(0)
        for j, digit in enumerate(digits):
            acc += Fraction(digit, base ** (j + 1))
        return float(acc)

    seq = halton(10_000, 2)
    mismatches = 0
    for t in range(1, 10_001):
        if seq.points[t - 1, 0] != oracle(t, 2):
            mismatches += 1
        if seq.points[t - 1, 1] != oracle(t, 3):
            mismatches += 1
    _report(
        2,
        "radical-inverse oracle, 10k points exact",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def test_criterion_03_affine_absorption():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        V = rng.uniform(0.0, 200.0, size=(500, 2))
        while True:
            A = rng.normal(0.0, 1.0, size=(2, 2))
            if np.linalg.det(A) > 0.05:
                break
        b = rng.uniform(-50.0, 50.0, size=2)
        W = V @ A.T + b
        worst = max(worst, delta_median(V, W, 1).delta)
    _report(
        3,
        "affine maps absorbed at degree 1",
        worst <= 1e-6,
        f"worst delta {worst:.3g}",
    )


def test_criterion_04_translation_equivariance():
    fig = generate_figure(404, 128).pixels
    dx, dy = 13, 7
    canvas_a = np.zeros((160, 160))
    canvas_b = np.zeros((160, 160))
    canvas_a[0:128, 0:128] = fig
    canvas_b[dy : 128 + dy, dx : 128 + dx] = fig
    seq = halton(1024, 2)
    codes = []
    for canvas in (canvas_a, canvas_b):
        nimg = normalize(GrayImage(pixels=canvas), Polarity.LIGHT_ON_DARK)
        field = make_density_field(nimg, 1e-4)
        codes.append(encode(field, seq).points)
    med = np.median(codes[1] - codes[0], axis=0)
    err_x = abs(float(med[0]) - dx)
    err_y = abs(float(med[1]) - dy)
    _report(
        4,
        "translation equivariance at image level",
        err_x <= 0.5 and err_y <= 0.5,
        f"median displacement ({med[0]:.3f}, {med[1]:.3f}) vs (13, 7)",
    )


def test_criterion_05_separation_sweep(tmp_path):
    t0 = time.perf_counter()
    corpus_dir = tmp_path / "corpus"
    generate_corpus(corpus_dir, CorpusSpec(pair_count=6, size=128, seed=42))

    entries = load_corpus(corpus_dir, Polarity.LIGHT_ON_DARK, 1e-4)
    alphas = [0.05 + 0.01 * i for i in range(46)]  # 0.05 .. 0.50
    rows = sweep(entries, alphas, 3)
    separated = [
        row.status == "ok" and row.related_max < row.unrelated_min for row in rows
    ]

    best_run = 0
    current = 0
    for flag in separated:
        current = current + 1 if flag else 0
        best_run = max(best_run, current)
    window = (best_run - 1) * 0.01 if best_run else 0.0
    elapsed = time.perf_counter() - t0
    _report(
        5,
        "related/unrelated bands separate over a wide alpha window",
        window >= 0.2 and elapsed < 300.0,
        f"window {window:.2f} (need 0.2), {elapsed:.1f}s",
    )


def test_criterion_06_encoding_speed():
    samples = run_grid([256], [256], [1025], reps=7, seed=99)
    median_ms = samples[0].median_ms
    _report(
        6,
        "256x256 m=1025 median encode time",
        median_ms <= 100.0,
        f"{median_ms:.1f} ms (budget 100 ms)",
    )


def test_criterion_07_timing_model_structure():
    t0 = time.perf_counter()
    sizes = [16, 32, 64, 128, 256, 512]
    lengths = [16, 32, 64, 128, 256, 512, 1024]
    samples = run_grid(sizes, sizes, lengths, reps=10, seed=7)
    model = fit_model(samples)

    planted = (0.6853e-4, 3.8459e-4, 0.3943e-4)
    synth = [
        TimingSample(
            H=h,
            W=w,
            m=m,
            reps=10,
            median_ms=planted[0] * h * w
            + planted[1] * m * (math.log2(h * w) - 2.0)
            + planted[2] * m * w,
        )
        for h in (16, 64, 512)
        for w in (16, 64, 512)
        for m in (16, 128, 1024)
    ]
    refit = fit_model(synth)
    recovery = max(
        abs(got - want) / want
        for got, want in zip((refit.a, refit.b, refit.c), planted)
    )
    elapsed = time.perf_counter() - t0
    _report(
        7,
        "timing model: r >= 0.95 on measurements, exact synthetic recovery",
        model.r >= 0.95 and recovery <= 1e-6 and elapsed < 600.0,
        f"r={model.r:.4f}, recovery {recovery:.2g}, {elapsed:.0f}s",
    )


def test_criterion_08_least_squares_correctness():
    rng = np.random.default_rng(88)
    worst_orth = 0.0
    for _ in range(100):
        B = rng.normal(size=(200, 10))
        W = rng.normal(size=(200, 2))
        T, _, _ = least_squares_fit(B, W)
        lhs = np.linalg.norm(B.T @ (B @ T - W))
        bound = 1e-8 * (1.0 + np.linalg.norm(B.T) * np.linalg.norm(W))
        worst_orth = max(worst_orth, lhs / bound)
    worst_recovery = 0.0
    for _ in range(20):
        B = rng.normal(size=(200, 10))
        T0 = rng.normal(size=(10, 2))
        T, _, _ = least_squares_fit(B, B @ T0)
        worst_recovery = max(
            worst_recovery,
            np.linalg.norm(T - T0) / np.linalg.norm(T0),
        )
    _report(
        8,
        "least-squares orthogonality and planted recovery",
        worst_orth <= 1.0 and worst_recovery <= 1e-9,
        f"orthogonality ratio {worst_orth:.3g}, recovery {worst_recovery:.2g}",
    )


def test_criterion_09_truncation_and_prefix_laws():
    field = make_density_field(
        normalize(generate_figure(909, 96), Polarity.LIGHT_ON_DARK), 1e-4
    )
    long_code = encode(field, halton(1024, 2))
    short_code = encode(field, halton(512, 2))
    prefix_exact = np.array_equal(long_code.points[:512], short_code.points)

    rng = np.random.default_rng(909)
    V = rng.uniform(0.0, 100.0, size=(300, 2))
    W = rng.uniform(0.0, 100.0, size=(200, 2))
    truncation_exact = (
        delta_median(V, W, 3).delta == delta_median(V[:200], W[:200], 3).delta
    )
    _report(
        9,
        "prefix and truncation laws hold exactly",
        prefix_exact and truncation_exact,
        f"prefix {prefix_exact}, truncation {truncation_exact}",
    )


def test_criterion_10_code_length_rule():
    ok = (
        code_length(3729.0, 0.25, 10_000) == 932  # round(932.25)
        and code_length(8923.0, 0.25, 10_000) == 2231  # round(2230.75)
        and code_length(3729.0, 0.25, 500) == 500  # capped by the sequence
        and code_length(8923.0, 0.25, 1025) == 1025
    )
    _report(10, "code-length rule at reported mass extremes", ok)


def test_criterion_11_codes_converge_as_the_image_grows():
    # one figure's codes at s^2 against its 1024^2 code, whose scale degree 1
    # absorbs: the delta at least halves at each doubling of s
    seq = halton(4097, 2)
    worst = 0.0
    readings = []
    for k in range(3):
        codes = {}
        for size in (128, 256, 512, 1024):
            nimg = normalize(generate_figure([7, k], size), Polarity.LIGHT_ON_DARK)
            codes[size] = encode(make_density_field(nimg, 1e-4), seq).points
        deltas = [delta_median(codes[s], codes[1024], 1).delta for s in (128, 256, 512)]
        readings.append(" -> ".join(f"{d:.2f}" for d in deltas))
        worst = max(worst, deltas[1] / deltas[0], deltas[2] / deltas[1])
    _report(
        11,
        "codes converge as the image grows",
        worst <= 0.5,
        f"d=1 delta against 1024^2 at 128/256/512: {'; '.join(readings)}, "
        f"worst ratio {worst:.2f}",
    )
