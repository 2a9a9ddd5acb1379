"""The 2-D Halton sequence: radical inverses in bases 2 and 3.

Every point depends only on its index, never on the requested length, so
sequences are identical across runs and machines and any prefix of a
longer sequence equals the shorter sequence. Points are exact (correctly
rounded) for indices below 2**53 // 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _mirror_table(base: int, h: int) -> np.ndarray:
    """The h-digit mirror of every integer in [0, base**h), as int64."""
    table = np.arange(base, dtype=np.int64)
    for digits in range(1, h):
        table = (table[:, None] + np.arange(base) * base**digits).ravel()
    return table


def _radical_inverses(t: np.ndarray, base: int) -> np.ndarray:
    """Mirror the base-`base` digits of each index in t across the radix point.

    Every index is mirrored over the k digits of the largest, so each value
    is the ratio R / base**k, divided once. Every index must lie below
    2**53 // base: then base * max(t) < 2**53, both integers are exact
    doubles and the quotient is correctly rounded. R is assembled from
    blocks of h low digits, h about k / 2 but base**h at most 2**16 (or
    h = 1), each block mirrored by one lookup in a table of the h-digit
    mirrors.
    """
    top = int(t.max())
    k = 0
    while base**k <= top:
        k += 1
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


@dataclass(frozen=True)
class QuasiSequence:
    """Ordered points in the open unit square, x in base 2 and y in base 3."""

    points: np.ndarray  # (m, 2), every coordinate strictly in (0, 1)
    bases: tuple[int, ...]

    @property
    def m(self) -> int:
        return self.points.shape[0]

    def __len__(self) -> int:
        return self.points.shape[0]

    def prefix(self, k: int) -> "QuasiSequence":
        """The first k points as a sequence of their own."""
        if not 1 <= k <= len(self):
            raise ValueError("prefix length out of range")
        return QuasiSequence(points=self.points[:k], bases=self.bases)


def halton(m: int, n: int = 2) -> QuasiSequence:
    """First m 2-D Halton points in (0,1)^2; point j uses integer index j + 1.

    Index 0 is skipped because its radical inverse is 0, which lies outside
    the open square. x uses base 2 and y base 3; every point is correctly
    rounded while m < 2**53 // 3. ``n`` is the dimension, which must be 2.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n != 2:
        raise ValueError(f"only 2-D sequences are supported, got n={n}")
    bases, index = (2, 3), np.arange(1, m + 1)
    points = np.column_stack([_radical_inverses(index, base) for base in bases])
    return QuasiSequence(points=points, bases=bases)
