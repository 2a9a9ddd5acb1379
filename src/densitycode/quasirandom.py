"""Halton quasi-uniform sequences built from radical inverses in prime bases.

Every point depends only on its index and the dimension, never on the
requested length, so sequences are identical across runs and machines and
any prefix of a longer sequence equals the shorter sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def first_primes(n: int) -> list[int]:
    """Return the first n primes (2, 3, 5, ...)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    primes: list[int] = []
    candidate = 2
    while len(primes) < n:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _mirror_table(base: int, h: int) -> np.ndarray:
    """The h-digit mirror of every integer in [0, base**h), as int64."""
    table = np.arange(base, dtype=np.int64)
    for digits in range(1, h):
        table = (table[:, None] + np.arange(base) * base**digits).ravel()
    return table


def _radical_inverses(t: np.ndarray, base: int) -> np.ndarray:
    """Mirror the base-`base` digits of each index in t across the radix point.

    Every index is mirrored over the k digits of the largest, so each value
    is the exact ratio R / base**k, divided once. While base * max(t) <
    2**53 both integers are exact doubles and the quotient is correctly
    rounded; R is then assembled from blocks of h low digits, h about k / 2
    but base**h at most 2**16 (or h = 1), each block mirrored by one lookup
    in a table of the h-digit mirrors. Beyond 2**53 the digits stay Python
    integers and are mirrored one at a time.
    """
    top = int(t.max())
    k = 0
    while base**k <= top:
        k += 1
    if top >= 2**53 // base:
        rest, mirrored = t.astype(object), 0
        for _ in range(k):
            mirrored = mirrored * base + rest % base
            rest = rest // base
        return (mirrored / base**k).astype(np.float64)
    h = 1
    while h < (k + 1) // 2 and base ** (h + 1) <= 2**16:
        h += 1
    table = _mirror_table(base, h)
    rest, mirrored, left = t.astype(np.int64), np.zeros(len(t), np.int64), k
    while left > 0:
        take = min(h, left)
        rest, block = np.divmod(rest, base**take)
        left -= take
        # the take-digit mirrors are the h-digit ones of [0, base**take), shifted
        mirror = table if take == h else table[: base**take] // base ** (h - take)
        mirrored += mirror[block] * base**left
    return mirrored / base**k


def radical_inverse(t: int, base: int) -> float:
    """Correctly rounded double of t's base-`base` digits mirrored across the point."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if base < 2:
        raise ValueError("base must be >= 2")
    return float(_radical_inverses(np.array([int(t)]), base)[0])


@dataclass(frozen=True)
class QuasiSequence:
    """Ordered points in the open unit hypercube, one prime base per axis."""

    points: np.ndarray  # (m, n), every coordinate strictly in (0, 1)
    bases: tuple[int, ...]

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def prefix(self, k: int) -> "QuasiSequence":
        """The first k points as a sequence of their own."""
        if not 1 <= k <= len(self):
            raise ValueError("prefix length out of range")
        return QuasiSequence(points=self.points[:k], bases=self.bases)


def halton(m: int, n: int) -> QuasiSequence:
    """First m Halton points in (0,1)^n; point j uses integer index j + 1.

    Index 0 is skipped because its radical inverse is 0, which lies outside
    the open cube. Axis k uses the k-th prime as radix.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    bases = tuple(first_primes(n))
    index = np.arange(1, m + 1)
    points = np.column_stack([_radical_inverses(index, base) for base in bases])
    return QuasiSequence(points=points, bases=bases)
