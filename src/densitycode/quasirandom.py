"""The 2-D Halton sequence: radical inverses in bases 2 and 3.

Every point depends only on its index, never on the requested length, so
sequences are identical across runs and machines and any prefix of a
longer sequence equals the shorter sequence. Points are exact (correctly
rounded) for indices below 2**53 // 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _radical_inverses(m: int, base: int) -> np.ndarray:
    """The base-`base` radical inverses of the indices 1..m.

    The k-digit mirrors of 0..m are built one leading digit at a time:
    index d * base**j + i mirrors to base * mirror(i) + d, and only the top
    level is cut to the leading digits m uses. Each value is the ratio
    R / base**k, divided once; with m below 2**53 // base, base**k <=
    base * m < 2**53, so both integers are exact doubles and the quotient
    is correctly rounded.
    """
    mirrors, scale = np.zeros(1, np.int64), 1  # the mirrors of 0..scale-1
    while scale <= m:
        lead = np.arange(min(base, m // scale + 1))[:, None]  # digits in use
        mirrors = (mirrors * base + lead).ravel()
        scale *= base
    return mirrors[1 : m + 1] / scale


@dataclass(frozen=True)
class QuasiSequence:
    """Ordered points in the open unit square, x in base 2 and y in base 3."""

    points: np.ndarray  # (m, 2), every coordinate strictly in (0, 1)
    bases: tuple[int, ...]

    @property
    def m(self) -> int:
        return self.points.shape[0]


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
    bases = (2, 3)
    points = np.column_stack([_radical_inverses(m, base) for base in bases])
    return QuasiSequence(points=points, bases=bases)
