"""Tests for the 2-D Halton sequence and its radical inverses."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitycode import halton


def brute_force_radical_inverse(t: int, base: int) -> float:
    """Independent oracle: exact rational digit mirror, rounded once."""
    digits = []
    while t > 0:
        digits.append(t % base)
        t //= base
    acc = Fraction(0)
    for j, digit in enumerate(digits):
        acc += Fraction(digit, base ** (j + 1))
    return float(acc)


def digit_loop_radical_inverses(t: np.ndarray, base: int) -> np.ndarray:
    """Oracle: the digit loop the table-driven generator replaced.

    Every index is mirrored one digit at a time over the k digits of the
    largest, then divided once by base**k; exact while base * max(t) < 2**53.
    """
    rest = t.astype(np.int64)
    mirrored, scale = np.zeros_like(rest), 1
    while rest.any():
        mirrored = mirrored * base + rest % base
        rest, scale = rest // base, scale * base
    return mirrored / scale


def test_radical_inverse_hand_computed():
    points = halton(5).points
    assert points[0, 0] == 0.5
    assert points[3, 0] == 0.125  # 4 = 100 in base 2 -> 0.001
    assert points[4, 1] == 7 / 9  # 5 = 12 in base 3 -> 0.21


def test_radical_inverse_matches_oracle_small_sweep():
    points = halton(1999).points
    for t in range(1, 2000):
        assert points[t - 1, 0] == brute_force_radical_inverse(t, 2)
        assert points[t - 1, 1] == brute_force_radical_inverse(t, 3)


def test_halton_first_points():
    seq = halton(3, 2)
    assert seq.points[0, 0] == 0.5
    assert seq.points[0, 1] == pytest.approx(1 / 3, abs=0)
    assert seq.points[2, 0] == 0.75
    assert seq.points[2, 1] == pytest.approx(1 / 9, abs=0)


def test_halton_bases_are_first_primes():
    assert halton(1).bases == (2, 3)


def test_halton_prefix_property():
    long = halton(1025, 2)
    short = halton(100, 2)
    assert np.array_equal(long.points[:100], short.points)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(m=st.integers(min_value=1, max_value=2 * 10**5), data=st.data())
def test_halton_prefix_law_and_last_point_property(m, data):
    k = data.draw(st.integers(min_value=1, max_value=m))
    points = halton(m).points
    assert np.array_equal(halton(k).points, points[:k])
    assert points[-1, 0] == brute_force_radical_inverse(m, 2)
    assert points[-1, 1] == brute_force_radical_inverse(m, 3)
    assert np.all((points > 0.0) & (points < 1.0))


def test_halton_coordinates_strictly_inside_unit_square():
    pts = halton(1025, 2).points
    assert np.all(pts > 0.0)
    assert np.all(pts < 1.0)


def test_halton_quadrant_balance():
    # every axis-aligned quadrant holds m/4 within 5%
    pts = halton(1024, 2).points
    left = pts[:, 0] < 0.5
    bottom = pts[:, 1] < 0.5
    counts = [
        int(np.sum(left & bottom)),
        int(np.sum(left & ~bottom)),
        int(np.sum(~left & bottom)),
        int(np.sum(~left & ~bottom)),
    ]
    for count in counts:
        assert abs(count - 256) <= 0.05 * 256


def test_halton_rejects_bad_args():
    with pytest.raises(ValueError):
        halton(0, 2)
    for n in (0, 1, 3):
        with pytest.raises(ValueError, match="only 2-D sequences"):
            halton(5, n)


def test_halton_65536_matches_exact_oracle():
    pts = halton(65536, 2).points
    rng = np.random.default_rng(65536)
    indices = [*rng.choice(65536, size=2000, replace=False), 65535]
    for j in indices:
        assert pts[j, 0] == brute_force_radical_inverse(int(j) + 1, 2)
        assert pts[j, 1] == brute_force_radical_inverse(int(j) + 1, 3)


POWERS = {b**k for b in (2, 3) for k in range(1, 18) if b**k <= 3**11}


@pytest.mark.parametrize(
    "m", sorted({p + e for p in POWERS for e in (-1, 0, 1)}) + [10**6]
)
def test_halton_matches_the_digit_loop(m):
    index = np.arange(1, m + 1)
    points = halton(m, 2).points
    assert np.array_equal(points[:, 0], digit_loop_radical_inverses(index, 2))
    assert np.array_equal(points[:, 1], digit_loop_radical_inverses(index, 3))


@pytest.mark.parametrize("m", [2**16 + 1, 3**11 + 1])
def test_halton_peak_memory_is_at_most_48_bytes_a_point(m):
    # at a power of the base plus one the mirrors built outnumber m nearly 2:1
    tracemalloc.start()
    try:
        halton(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * m
