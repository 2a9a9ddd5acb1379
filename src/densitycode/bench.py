"""Encoding-time measurement over (height, width, length) grids.

Each grid cell is timed on fresh random images, single-threaded, with one
warm-up round excluded; the median over repetitions resists scheduler noise.
A three-term nonnegative regression summarizes the measurements:

    t(H, W, m) ~ a*HW + b*m*(log2(HW) - 2) + c*mW

covering preprocessing and the per-point dichotomic searches. The c*mW
term models the paper's per-point method, which rebuilds a conditional row
for every point; this package's array encoder does not, so c fits near 0.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

# run_grid's bounds: the smallest image side and length, and repetitions
MIN_GRID_SIZE = 16
MIN_REPS = 5


@dataclass(frozen=True)
class TimingSample:
    H: int
    W: int
    m: int
    reps: int
    median_ms: float


# the timing CSV's columns, one per TimingSample field
TIMING_COLUMNS = {"H": int, "W": int, "m": int, "reps": int, "median_ms": float}


@dataclass(frozen=True)
class TimingModel:
    a: float
    b: float
    c: float
    r: float
    rmse_ms: float


def _regressors(H: int, W: int, m: int) -> tuple[float, float, float]:
    hw = float(H) * float(W)
    return hw, m * (math.log2(hw) - 2.0), float(m) * float(W)


def run_grid(heights, widths, lengths, reps: int) -> list[TimingSample]:
    """Time the full encode pipeline over the cartesian grid of conditions.

    Every repetition uses a fresh random image, seeded by (H, W, m, rep):
    no timed step depends on the pixel values. Each length's sequence is
    built once outside the timed region. The grid is timed rep-major: a warm-up
    round over every cell, then ``reps`` rounds, each over every cell, so
    a burst of other load on the host costs each cell a repetition or two,
    which its median absorbs. Within a round each image size's cells run
    together, from a length that moves on by one each round, so the cost
    of moving to a new image size also falls on a cell in few rounds.
    """
    # the encode chain loads here: fit_model needs none of it
    from .encoder import encode
    from .image_io import GrayImage, Polarity, density_field
    from .quasirandom import halton

    heights = [int(h) for h in heights]
    widths = [int(w) for w in widths]
    lengths = [int(m) for m in lengths]
    if min(heights + widths + lengths) < MIN_GRID_SIZE:
        raise ValueError(f"all grid sizes must be >= {MIN_GRID_SIZE}")
    if reps < MIN_REPS:
        raise ValueError(f"reps must be >= {MIN_REPS}")
    seqs = {m: halton(m) for m in lengths}
    blocks = [(H, W) for H in heights for W in widths]
    times: list[list[list[float]]] = [[[] for _ in lengths] for _ in blocks]
    for rep in range(reps + 1):
        turn = rep % len(lengths)
        for (H, W), block_times in zip(blocks, times):
            for k in [*range(turn, len(lengths)), *range(turn)]:
                m = lengths[k]
                rng = np.random.default_rng([H, W, m, rep])
                img = GrayImage(pixels=rng.uniform(0.0, 255.0, (H, W)))
                t0 = time.perf_counter()
                encode(density_field(img, Polarity.LIGHT_ON_DARK), seqs[m])
                elapsed_ms = (time.perf_counter() - t0) * 1e3
                if rep > 0:  # round 0 is the warm-up
                    block_times[k].append(elapsed_ms)
    return [
        TimingSample(H=H, W=W, m=m, reps=reps, median_ms=float(np.median(cell_times)))
        for (H, W), block_times in zip(blocks, times)
        for m, cell_times in zip(lengths, block_times)
    ]


def _nnls(A: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Exact nonnegative least squares for a few columns.

    The optimum is the plain least-squares fit on its own support (Lawson &
    Hanson, Solving Least Squares Problems, ch. 23), so it is the lowest
    residual with no negative coefficient over all column subsets.
    """
    n = A.shape[1]
    best, best_rss = np.zeros(n), float(t @ t)
    for mask in range(1, 2**n):
        cols = [j for j in range(n) if mask >> j & 1]
        x = np.linalg.lstsq(A[:, cols], t, rcond=None)[0]
        rss = float(np.sum((t - A[:, cols] @ x) ** 2))
        if np.all(x >= 0.0) and rss < best_rss:
            best, best_rss = np.zeros(n), rss
            best[cols] = x
    return best


def fit_model(samples: list[TimingSample]) -> TimingModel:
    """Nonnegative least squares of the timings, exact by column-subset enumeration."""
    if len(samples) < 10:
        raise ValueError("need at least 10 samples")
    for s in samples:
        if min(s.H, s.W, s.m) < 1:
            raise ValueError(f"H, W and m must be >= 1, got {s.H}, {s.W}, {s.m}")
        if not 0.0 < s.median_ms < math.inf:
            raise ValueError(f"median_ms must be finite and > 0, got {s.median_ms}")
    for name in ("H", "W", "m"):
        if len({getattr(s, name) for s in samples}) < 2:
            raise ValueError(f"degenerate design: factor {name} is constant")
    A = np.array([_regressors(s.H, s.W, s.m) for s in samples])
    t = np.array([s.median_ms for s in samples])
    coeffs = _nnls(A, t)
    predicted = A @ coeffs
    r = float(np.corrcoef(t, predicted)[0, 1])
    rmse = float(np.sqrt(np.mean((t - predicted) ** 2)))
    return TimingModel(
        a=float(coeffs[0]), b=float(coeffs[1]), c=float(coeffs[2]), r=r, rmse_ms=rmse
    )
