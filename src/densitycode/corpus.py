"""Synthetic test corpus and the separation sweep run over it.

Figures are deterministic branching skeletons rasterized with soft strokes
and Gaussian-blurred, light on dark. Each figure gets a companion produced
by a cubic "wind" warp x' = a(y)*x + b(y), y' = q(y) with a > 0 and q
increasing, a map the degree-3 dissimilarity can absorb. The sweep compares
every ordered pair of corpus images over a grid of length factors.
"""

from __future__ import annotations

import csv
import math
import mmap
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import permutations, takewhile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .encoder import MAX_POINTS, invert, read_table
from .image_io import (
    GrayImage,
    Polarity,
    density_field,
    load_image,
    write_pgm,
)

# minimum normalized foreground mass, as a fraction of the pixel count
_MASS_FLOOR_FRACTION = 0.02
# basis cells (k items x q rows x m points) a sweep's fit may always gather:
# 1 MiB, below which the solver's fixed cost per call outweighs the memory
FIT_CELLS_FLOOR = 2**17
# cells a blocked numpy pass works on, the stroke pixels `_render_segments`
# evaluates or the output pixels `warp_image` samples: enough to spend the
# per-call cost well, few enough that the temporaries stay small
_BLOCK_CELLS = 2**14
# the figure sizes CorpusSpec and generate_figure accept: MIN_FIGURE_SIZE ..
# MAX_FIGURE_SIZE (a 4096^2 figure peaks at 0.25 GiB: the render canvas and
# the blur's row pass), and the fewest pairs a corpus holds
MIN_FIGURE_SIZE = 64
MAX_FIGURE_SIZE = 4096
MIN_PAIRS = 2
# rows, then columns, that one matmul of the figure blur writes
_BLUR_BLOCK = 64


def _check_size(size: int) -> None:
    if not MIN_FIGURE_SIZE <= size <= MAX_FIGURE_SIZE:
        bounds = f"{MIN_FIGURE_SIZE}..{MAX_FIGURE_SIZE}"
        raise ValueError(f"size must be in {bounds}, got {size}")


@dataclass(frozen=True)
class CorpusSpec:
    """Parameters of one generated corpus."""

    pair_count: int = 6
    size: int = 128
    seed: int = 42

    def __post_init__(self):
        if self.pair_count < MIN_PAIRS:
            raise ValueError(f"pair_count must be >= {MIN_PAIRS}")
        _check_size(self.size)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _grow_skeleton(rng: np.random.Generator, size: int) -> list[tuple]:
    """Recursive trunk-and-branch segments as (x0, y0, x1, y1, width)."""
    segments: list[tuple] = []

    def uniform(lo, hi):  # rng.uniform(lo, hi), bit for bit, at a third of its cost
        return lo + (hi - lo) * rng.random()

    def grow(x, y, angle, length, width, depth):
        x2 = x + length * math.cos(angle)
        y2 = y + length * math.sin(angle)
        segments.append((x, y, x2, y2, width))
        if depth == 0 or length < 2.0:
            return
        n_children = 2 + (rng.random() < 0.45)
        side = 1.0 if rng.random() < 0.5 else -1.0
        for _ in range(n_children):
            spread = side * uniform(0.25, 0.8) + rng.normal(0.0, 0.15)
            side = -side
            grow(
                x2,
                y2,
                angle + spread,
                length * uniform(0.58, 0.78),
                width * 0.72,
                depth - 1,
            )

    trunk_x = size * uniform(0.42, 0.58)
    grow(
        trunk_x,
        size * 0.92,
        -math.pi / 2 + rng.normal(0.0, 0.12),
        size * uniform(0.2, 0.28),
        size / 34.0,
        5,
    )
    return segments


def _render_segments(segments, size: int, width_scale: float) -> np.ndarray:
    """Rasterize soft strokes into a float canvas via distance to segment.

    A segment of half width hw lights the pixels within R = hw + 0.5 of it,
    all inside its box: the pixels within R + 1 of its ends' bounding box,
    clipped to the canvas. On each row of its box only the columns within
    R of the segment's line, and one pixel of slack for rounding, are
    evaluated: x_line(y) +- (R L / |dy| + 1) for length L and rise dy, or
    the whole row where that span is wider than the canvas (a horizontal,
    nearly horizontal or zero-length segment). The (segment, row) spans are
    evaluated as flat arrays in passes of at most ``_BLOCK_CELLS`` cells,
    each max-merged into the canvas with one ``np.maximum.at``. Every
    evaluated pixel takes the same operations on the same operands as a
    segment-by-segment loop over whole boxes, a skipped pixel would take 0,
    and the max does not depend on order, so the canvas is the same bit for
    bit. A zero-length segment takes len^2 = inf, so its t is 0.
    """
    canvas = np.zeros((size, size))
    seg = np.array(segments, dtype=np.float64).reshape(-1, 5)
    hw = 0.5 * seg[:, 4] * width_scale
    pad = (hw + 1.5)[:, None]
    ends = seg[:, :4].reshape(-1, 2, 2)  # (x0, y0), (x1, y1)
    lo = np.clip(np.floor(ends.min(axis=1) - pad), 0, size).astype(np.intp)
    hi = np.clip(np.ceil(ends.max(axis=1) + pad), -1, size - 1).astype(np.intp)
    keep = np.flatnonzero((hi >= lo).all(axis=1))
    (c0, r0), (c1, r1) = lo[keep].T, hi[keep].T  # columns x, rows y
    x0, y0, x1, y1 = seg[keep, :4].T
    dx, dy, reach = x1 - x0, y1 - y0, hw[keep] + 0.5
    len_sq = dx * dx + dy * dy
    len_sq[len_sq == 0.0] = np.inf
    # the span's centre moves by dx / dy a row; where the span is wider than
    # the canvas, it is the whole row, and the quotients are never formed
    reach_len = reach * np.hypot(dx, dy)  # hypot: dy^2 may underflow
    narrow = np.abs(dy) * size > reach_len
    slope = np.divide(dx, dy, out=np.zeros_like(dx), where=narrow)
    half = np.divide(reach_len, np.abs(dy), out=np.full_like(dx, np.inf), where=narrow)
    heights = r1 + 1 - r0
    s = np.repeat(np.arange(len(keep)), heights)  # each row's segment
    row = np.arange(len(s)) - np.repeat(np.cumsum(heights) - heights - r0, heights)
    centre = x0[s] + ((row + 0.5) - y0[s]) * slope[s]
    first = np.clip(np.floor(centre - (half[s] + 1.0)), c0[s], c1[s] + 1)
    last = np.clip(np.ceil(centre + (half[s] + 1.0)), c0[s] - 1, c1[s])
    count = (last + 1 - first).astype(np.intp)
    end = np.cumsum(count)  # the rows' cells, end to end
    shift = first.astype(np.intp) - (end - count)  # a cell's column less its index
    out, total = canvas.reshape(-1), int(count.sum())
    for p in range(0, total, _BLOCK_CELLS):
        q = min(p + _BLOCK_CELLS, total)
        a, b = np.searchsorted(end, [p, q - 1], side="right")
        i = np.arange(a, b + 1)  # the pass's rows, then each row once a cell
        i = np.repeat(i, np.minimum(end[i], q) - np.maximum(end[i] - count[i], p))
        col = np.arange(p, q) + shift[i]
        k = s[i]
        px, py = col + 0.5, row[i] + 0.5
        t = ((px - x0[k]) * dx[k] + (py - y0[k]) * dy[k]) / len_sq[k]
        t = np.clip(t, 0.0, 1.0)
        dist = np.hypot(px - (x0[k] + t * dx[k]), py - (y0[k] + t * dy[k]))
        np.maximum.at(out, row[i] * size + col, np.clip(reach[k] - dist, 0.0, 1.0))
    return canvas


def _blur(canvas: np.ndarray, sigma: float) -> np.ndarray:
    """gaussian_filter(canvas, sigma, mode="constant") of a square canvas, in place.

    Taps are scipy's normalized exp(-x^2 / 2 sigma^2), |x| <= r = int(4 sigma
    + 0.5); no taps fall past the edge, which is the zero padding. Rows are
    blurred in blocks of ``_BLUR_BLOCK``, then columns: each block is one
    matmul of its cut of a single b x (b + 2r) Toeplitz window, W[a, c] =
    taps[a - c + 2r], against only the rows or columns it reaches. The
    column pass writes into ``canvas``, which is returned.
    """
    n, b = len(canvas), _BLUR_BLOCK
    radius = int(4.0 * sigma + 0.5)
    taps = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    line = np.pad(taps / taps.sum(), b - 1)
    window = np.lib.stride_tricks.sliding_window_view(line, b + 2 * radius)
    window = window[:, ::-1].copy()
    cuts = []  # (output block, input span, the window's cut for them)
    for i0 in range(0, n, b):
        i1 = min(i0 + b, n)
        j0, j1 = max(i0 - radius, 0), min(i1 + radius, n)
        cut = window[: i1 - i0, j0 - i0 + radius : j1 - i0 + radius]
        cuts.append((slice(i0, i1), slice(j0, j1), cut))
    rows = np.empty_like(canvas)
    for out, span, cut in cuts:
        np.matmul(cut, canvas[span], out=rows[out])
    for out, span, cut in cuts:
        np.matmul(rows[:, span], cut.T, out=canvas[:, out])
    return canvas


def generate_figure(seed, size: int) -> GrayImage:
    """Deterministic blurred branching figure, light on dark.

    The Gaussian blur's sigma is size / 64 pixels (`_blur`: in bands, so a
    figure peaks at about 2 size^2 doubles, 16 MiB at 1024^2). Stroke width
    is grown until the normalized foreground mass clears 2% of the pixel
    count, so every figure carries enough mass to encode.
    """
    _check_size(size)
    rng = np.random.default_rng(seed)
    segments = _grow_skeleton(rng, size)
    floor = _MASS_FLOOR_FRACTION * size * size
    width_scale = 1.0
    for _ in range(10):
        canvas = _blur(_render_segments(segments, size, width_scale), size / 64.0)
        peak = float(canvas.max())
        if peak > 0.0 and float(canvas.sum()) / peak > floor:
            break
        width_scale *= 1.3
    else:
        raise RuntimeError("figure generator failed to reach the mass floor")
    canvas *= 255.0 / peak
    return GrayImage(pixels=canvas)


def _poly(coeffs, y):
    """Sum of coeffs[k] * y**k, k ascending, skipping zero coefficients."""
    out = np.zeros(np.shape(y))
    for k, coeff in enumerate(coeffs):
        if coeff == 0.0:
            continue
        out += coeff * y**k if k else coeff
    return out


def _derivative(coeffs):
    """Ascending coefficients of the derivative of an ascending polynomial."""
    return np.arange(1, len(coeffs)) * coeffs[1:]


class WindWarp(NamedTuple):
    """The map x' = a(y)*x + b(y), y' = q(y): ascending coefficients in y.

    The corpus family: a is at most quadratic, b and q at most cubic.
    """

    a: np.ndarray
    b: np.ndarray
    q: np.ndarray


def _least_on(coeffs, hi: float):
    """Least value on [0, hi] of a polynomial of degree <= 2; NaN fails.

    It lies at an end, or at the vertex when that is a minimum inside.
    """
    c = [float(x) for x in coeffs] + [0.0] * (3 - len(coeffs))
    ys = [0.0, float(hi)]
    if c[2] > 0.0 and 0.0 < -c[1] < 2.0 * c[2] * hi:
        ys.append(-c[1] / (2.0 * c[2]))
    return np.min(_poly(coeffs, np.array(ys)))


def check_warp_family(warp: WindWarp, sy: int) -> None:
    """Check the family's degrees, and a > 0 and q' > 0 on all of [0, sy]."""
    if len(warp.a) > 3 or len(warp.b) > 4 or len(warp.q) > 4:
        raise ValueError(
            "not in transformation family: a(y) above degree 2, "
            "or b(y) or q(y) above degree 3"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: inf, or NaN fails
        a_least = _least_on(warp.a, sy)
        dq_least = _least_on(_derivative(warp.q), sy)
    if not (a_least > 0.0 and dq_least > 0.0):
        raise ValueError(
            "not in transformation family: Jacobian diagonal not positive"
        )


def wind_warp_coefficients(rng: np.random.Generator, size: int) -> WindWarp:
    """Random gentle sway: x shifts by a cubic in y, y bends mildly.

    The peak x displacement over the rectangle is rescaled into
    [0.035, 0.07] * size so warps are visible but never extreme.
    """
    s = float(size)
    sway = rng.uniform(-1.0, 1.0, size=3)  # coefficients of p(y/s), no constant
    ys = np.linspace(0.0, 1.0, 65)
    peak = float(np.max(np.abs(sway[0] * ys + sway[1] * ys**2 + sway[2] * ys**3)))
    if peak == 0.0:
        sway = np.array([1.0, 0.0, 0.0])
        peak = 1.0
    sway *= rng.uniform(0.035, 0.07) / peak
    bend = rng.uniform(-0.04, 0.04, size=2)
    return WindWarp(
        a=np.array([1.0, 0.0, 0.0]),
        b=np.array([0.0, sway[0], sway[1] / s, sway[2] / s**2]),
        q=np.array([0.0, 1.0, bend[0] / s, bend[1] / s**2]),
    )


def _invert_monotone(q, targets, lo: float, hi: float):
    """Solve q(y) = t for a polynomial q increasing on [lo, hi], vectorized.

    Bisection localizes the root, a few Newton steps polish it to machine
    precision. Targets outside [q(lo), q(hi)] come back NaN.
    """
    dq = _derivative(q)
    t = np.asarray(targets, dtype=np.float64)
    flo = float(_poly(q, np.array([lo]))[0])
    fhi = float(_poly(q, np.array([hi]))[0])
    outside = (t < flo) | (t > fhi)
    a = np.full(t.shape, lo)
    b = np.full(t.shape, hi)
    for _ in range(52):
        mid = 0.5 * (a + b)
        go_right = _poly(q, mid) < t
        a = np.where(go_right, mid, a)
        b = np.where(go_right, b, mid)
    x = 0.5 * (a + b)
    for _ in range(3):
        d = _poly(dq, x)
        x = x - (_poly(q, x) - t) / np.where(d > 0.0, d, 1.0)
    x = np.clip(x, lo, hi)
    x[outside] = np.nan
    return x


def _bilinear(px: np.ndarray, x: np.ndarray, y: np.ndarray, fill: float):
    """Sample the image at geometric coordinates with edge replication.

    Pixel (r, c) has its center at (c + 0.5, r + 0.5). ``y`` lies in [0, sy],
    as the source rows :func:`_invert_monotone` solves for do; samples at an
    ``x`` outside [0, sx], or NaN, return the fill value.
    """
    sy, sx = px.shape
    with np.errstate(invalid="ignore"):
        ok = (x >= 0.0) & (x <= sx)  # False at NaN and at either infinity
    xc = np.clip(np.nan_to_num(x) - 0.5, 0.0, sx - 1.0)
    yc = np.clip(y - 0.5, 0.0, sy - 1.0)
    j0 = np.minimum(np.floor(xc).astype(np.intp), sx - 2)
    i0 = np.minimum(np.floor(yc).astype(np.intp), sy - 2)
    fx = xc - j0
    fy = yc - i0
    flat, k = px.ravel(), i0 * sx + j0  # k: each sample's top-left neighbour
    top = (1.0 - fx) * flat.take(k) + fx * flat.take(k + 1)
    bottom = (1.0 - fx) * flat.take(k + sx) + fx * flat.take(k + sx + 1)
    value = (1.0 - fy) * top + fy * bottom
    return np.where(ok, value, fill)


def warp_image(img: GrayImage, warp: WindWarp) -> GrayImage:
    """Apply a forward wind warp by inverse-mapping every output pixel.

    The y component depends only on y, so the source y is constant along
    each output row and is found by inverting q; the x component is then
    a(y)*x + b(y), inverted in closed form per row. Bilinear sampling with
    the image minimum as background fill completes the resampling, one
    sampling call per block of rows of at most ``_BLOCK_CELLS`` pixels.
    """
    px = np.ascontiguousarray(img.pixels)  # each block then ravels to a view
    sy, sx = px.shape
    check_warp_family(warp, sy)
    fill = img.lo
    y_src = _invert_monotone(warp.q, np.arange(sy) + 0.5, 0.0, float(sy))
    # a, b or x past the float range makes an infinite or NaN x: fill
    with np.errstate(over="ignore", invalid="ignore"):
        a = _poly(warp.a, y_src)
        b = _poly(warp.b, y_src)
    col_targets = np.arange(sx) + 0.5
    out = np.full((sy, sx), fill)
    rows = np.flatnonzero(np.isfinite(y_src))
    per_block = max(1, _BLOCK_CELLS // sx)
    for start in range(0, len(rows), per_block):
        r = rows[start : start + per_block, None]  # the block's rows, as a column
        with np.errstate(over="ignore", invalid="ignore"):
            x_src = (col_targets - b[r]) / a[r]
        out[r[:, 0]] = _bilinear(px, x_src, y_src[r], fill)
    return GrayImage(pixels=out)


def generate_corpus(out_dir, spec: CorpusSpec | None = None) -> list[dict]:
    """Write pair<k>_A.pgm / pair<k>_B.pgm and a manifest.csv.

    Returns the manifest rows. Generation is fully reproducible from the
    spec: figure and warp randomness derive from (spec.seed, pair index).
    """
    if spec is None:
        spec = CorpusSpec()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []
    for k in range(spec.pair_count):
        file_a = f"pair{k}_A.pgm"
        file_b = f"pair{k}_B.pgm"
        # each write runs beside one image: the figure is written before it
        # is warped and dropped before the warped image is written
        figure = generate_figure([spec.seed, k], spec.size)
        write_pgm(figure.pixels / figure.hi * 65535.0, out_dir / file_a, maxval=65535)
        warp_rng = np.random.default_rng([spec.seed, k, 1])
        warp = wind_warp_coefficients(warp_rng, spec.size)
        warped = warp_image(figure, warp)
        del figure
        write_pgm(warped.pixels / warped.hi * 65535.0, out_dir / file_b, maxval=65535)
        del warped  # not alive while the next pair is built
        row = {
            "pair": k,
            "seed": spec.seed,
            "size": spec.size,
            "file_a": file_a,
            "file_b": file_b,
        }
        for name, coeffs in zip(WindWarp._fields, warp):  # a0..a2, b0..b3, q0..q3
            row.update({f"{name}{i}": f"{c:.17g}" for i, c in enumerate(coeffs)})
        rows.append(row)
    with open(out_dir / "manifest.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return rows


def load_corpus(corpus_dir, polarity: Polarity, lam: float) -> list:
    """(pair id, density field) of every image the manifest lists, in order."""
    corpus_dir = Path(corpus_dir)
    manifest = corpus_dir / "manifest.csv"
    if not manifest.is_file():
        raise ValueError(f"corpus incomplete: missing {manifest}")
    entries = []
    for row in read_table(manifest, {"pair": int, "file_a": str, "file_b": str}):
        pair = row["pair"]
        for key in ("file_a", "file_b"):
            path = corpus_dir / row[key]
            if not path.is_file():
                raise ValueError(f"corpus incomplete: missing {path}")
            entries.append((pair, density_field(load_image(path), polarity, lam)))
    if len(entries) < 4:
        raise ValueError("corpus incomplete: need at least two pairs")
    return entries


class SweepRow(NamedTuple):
    """Band edges of one length factor; the four deltas are None if invalid."""

    alpha: float
    related_min: float | None
    related_max: float | None
    unrelated_min: float | None
    unrelated_max: float | None
    status: str  # "ok", or "invalid" when a code is shorter than the basis


def _box_runs(code: np.ndarray) -> np.ndarray:
    """0, then the ascending ends of the runs of prefix lengths with one box.

    ``code`` is coordinate-major (2, L). Prefix length t ends a run when
    point t lies outside the box of the first t points; L ends the last.
    The run that ends at bounds[k] holds the lengths over bounds[k - 1].
    """
    lo = np.minimum.accumulate(code, axis=1)
    hi = np.maximum.accumulate(code, axis=1)
    grows = ((lo[:, 1:] < lo[:, :-1]) | (hi[:, 1:] > hi[:, :-1])).any(axis=0)
    return np.flatnonzero(np.r_[True, grows, True])


def _walk_in_two(lengths: int) -> bool:
    """Whether a forked child can walk a share of ``lengths`` walked lengths.

    That takes os.fork and os.sched_getaffinity (Linux), 2 usable CPUs, at
    least 2 lengths to share, and a process of one OS thread: fork copies
    only the calling thread, so a BLAS pool or any other thread keeps the
    walk in process.
    """
    if lengths < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return False
    if len(os.sched_getaffinity(0)) < 2:
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:  # no /proc mounted: the threads cannot be counted
        return False


@contextmanager
def _shares(lengths: list, found: np.ndarray):
    """Yield the lengths this process fits into ``found``, in walking order.

    Each is (m, start, stop, step); length m's deltas fill found[start:stop]
    in order. In one process the walk is every length, ascending. In two, a
    child made by os.fork walks them descending with every warning an
    error, writes its deltas straight into ``found`` (shared memory holding
    NaN) and ends in os._exit, while this process walks them ascending.
    Each walk stops at the first length whose last delta the other has
    written: the child finishes lengths one after another from the longest,
    so this walk covers every length the child left, from the one where it
    raised, warned or died. Rows, warnings and errors are thus those of one
    process. This process always reaps the child, and kills it first if its
    own walk raises.
    """
    if not _walk_in_two(len(lengths)):
        yield lengths
        return
    import signal  # a second process alone needs it

    def unmet(walk):  # found[stop - 1], written last, is a NaN until written
        return takewhile(lambda length: math.isnan(found[length[2] - 1]), walk)

    pid = os.fork()
    if pid == 0:  # the child
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                yield unmet(reversed(lengths))
        finally:
            os._exit(0)
    try:
        yield unmet(lengths)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)


def sweep(entries, alphas, degree: int, points: int | None = None) -> list[SweepRow]:
    """Delta of every ordered image pair per alpha, split related/unrelated.

    ``entries`` are (pair id, field) as from :func:`load_corpus`. One
    table holds the code length L = round(alpha * mass) of every (alpha,
    image), capped at ``points`` when given; a largest alpha that asks for
    codes over :data:`MAX_POINTS` without it is refused. An alpha whose
    shortest code has fewer points than the basis, or none, gives an
    "invalid" row. Each image is inverted once, at its length in the largest
    alpha's row, from one Halton sequence as long as the longest code, into
    the stack the fits read. Lengths only grow with alpha under one cap, so
    each alpha compares prefixes of those codes: its own codes, bit for bit.

    The plan is the (alphas x ordered pairs) array of common lengths
    min(L_i, L_j), walked once in ascending length. Each distinct (pair,
    length) is one item, so a pair tied at several alphas is fitted once.
    The items of one length go to the solver :func:`delta_median` runs, in
    runs whose gathered item bases (k items x q rows x m points) stay within
    the larger of half the live bases (n q max(L) / 2 cells) and
    :data:`FIT_CELLS_FLOOR`. On short codes the solver's cost is per call,
    not per item, and the floor makes nearly every length one call; on long
    codes at degree 1 and up, half the live bases is the larger cap. A
    source is prepared once per fit that holds its items. Each image keeps
    one live [-1, 1]-mapped basis, built for its prefix's bounding box over
    every prefix length that shares that box: a length takes its first
    columns, and a new basis is built only when the box grows. Every delta
    is :func:`delta_median`'s on the same prefixes, bit for bit. Returns one
    :class:`SweepRow` per alpha, in the order given.

    On Linux, with at least 2 usable CPUs and 2 walked lengths, in a
    process of one OS thread (one BLAS thread: a BLAS pool is a thread), the
    walk runs in two processes. A forked child walks down from the longest
    length and this process up from the shortest, until each reaches a
    length the other has finished. Each process keeps its own live bases,
    up to n q max(L) doubles each, and the child shares this process's
    other memory until either writes it, but for the deltas, which both
    write in one shared array. If the child raises, warns or dies, this
    process walks on through the lengths it left, so the rows, warnings and
    errors are those of one process.
    """
    # the solver and the sequence load here: gen-corpus needs neither
    from .matcher import _fit, _mapped_basis
    from .quasirandom import halton

    if degree < 0:
        raise ValueError("degree must be >= 0")
    pair_ids = [pair for pair, _ in entries]
    if not len(pair_ids) > len(set(pair_ids)) > 1:
        raise ValueError(
            "entries give no related or no unrelated pair: need two images "
            "of one pair and images of two pairs"
        )
    if points is not None and points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    if points is not None and points > MAX_POINTS:
        raise ValueError(f"points={points} exceeds the limit of {MAX_POINTS}")
    if len(alphas) == 0:
        return []
    alpha = np.array(alphas, dtype=float)
    if not ((alpha > 0) & (alpha < math.inf)).all():
        raise ValueError("alpha must be finite and > 0")
    # images by mass: lengths then ascend at every alpha, so the images that
    # share a common length are always a run of consecutive rows
    by_mass = sorted(entries, key=lambda entry: entry[1].foreground_mass)
    mass = np.array([field.foreground_mass for _, field in by_mass])
    # code_length's arithmetic for every (alpha, image) at once; without
    # points, an overflowing alpha * mass reads as just over the limit
    cap = MAX_POINTS + 1 if points is None else points
    with np.errstate(over="ignore"):
        lengths = np.floor(np.minimum(alpha[:, None] * mass + 0.5, cap)).astype(np.intp)
    top = lengths[alpha.argmax()]  # the largest alpha's: the longest codes
    if top.max() > MAX_POINTS:
        raise ValueError(
            f"alpha={alpha.max():g} asks for codes over {MAX_POINTS} points; "
            "set --points (points=) to cap them"
        )
    # an alpha is invalid when a code is shorter than the basis, or empty;
    # lengths grow with alpha, so if the largest is invalid, all are
    q = math.comb(degree + 2, 2)  # len(all_powers(degree)), without building it
    valid = lengths.min(axis=1) >= q
    if not valid.any():
        return [SweepRow(a, None, None, None, None, "invalid") for a in alphas]
    n, longest = len(by_mass), int(top.max())
    seq = halton(longest).points
    full = np.zeros((n, 2, longest))  # coordinate-major, the fit's layout
    for row, (_, field), m in zip(full, by_mass, top.tolist()):
        row[:, :m] = invert(field, seq[:m]).T  # the image's code at the largest alpha
    pairs = np.array(list(permutations(range(n), 2)))
    related = np.array([by_mass[i][0] == by_mass[j][0] for i, j in pairs])
    ok = lengths[valid]
    plan = np.minimum(ok[:, pairs[:, 0]], ok[:, pairs[:, 1]])
    # one key per distinct (length, pair), in walking order; a pair tied at
    # several alphas is one key, fitted once
    keys, cell_key = np.unique(
        plan * len(pairs) + np.arange(len(pairs)), return_inverse=True
    )
    key_m, key_pair = np.divmod(keys, len(pairs))
    walked, starts = np.unique(key_m, return_index=True)
    bounds = np.append(starts, len(keys))
    # a fit gathers each item's q x m basis: at most half the cells of the
    # live bases, or FIT_CELLS_FLOOR where that is more
    per_fit = np.maximum(1, max(n * q * longest // 2, FIT_CELLS_FLOOR) // (q * walked))
    lengths = list(zip(*[x.tolist() for x in (walked, bounds, bounds[1:], per_fit)]))
    # shared with a forked child; NaN marks a delta not found (_fit gives none)
    found = np.frombuffer(mmap.mmap(-1, 8 * len(keys)))
    found[:] = np.nan
    if degree:  # each image's live basis, for the lengths over lo up to end
        runs = [_box_runs(row[:, :m]) for row, m in zip(full, top.tolist())]
        live, live_lo, live_end = np.empty((n, q, longest)), [0] * n, [0] * n
    with _shares(lengths, found) as walk:
        for m, start, stop, step in walk:
            # keys run source by source; every source is also a target, and
            # they are the images of length m and up: rows first.. of full
            source, target = pairs[key_pair[start:stop]].T
            first = source[0]
            W = full[first:, :, :m]
            for i0 in range(0, stop - start, step):
                a, b = source[i0 : i0 + step], target[i0 : i0 + step]
                s0, s1 = a[0], a[-1] + 1  # the fit's sources: consecutive rows
                basis = None
                if degree:
                    for r in range(s0, s1):
                        if not live_lo[r] < m <= live_end[r]:  # map the run of m
                            k = np.searchsorted(runs[r], m)
                            end = live_end[r] = runs[r][k]
                            live_lo[r] = runs[r][k - 1]
                            live[r, :, :end] = _mapped_basis(
                                full[r, None, :, :end], degree
                            )
                    basis = live[s0:s1, :, :m]
                fit = _fit(full[s0:s1, :, :m], W, degree, a - s0, b - first, basis)
                found[start + i0 : start + i0 + len(a)] = fit.delta
    deltas = found[cell_key].reshape(plan.shape)
    bands = (deltas[:, related], deltas[:, ~related])
    ok_rows = zip(*[f(d, axis=1).tolist() for d in bands for f in (np.min, np.max)])
    return [
        SweepRow(alpha, *next(ok_rows), "ok")
        if is_valid
        else SweepRow(alpha, None, None, None, None, "invalid")
        for alpha, is_valid in zip(alphas, valid.tolist())
    ]
