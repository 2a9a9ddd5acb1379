"""Polynomial-map fitting between density codes and the median dissimilarity.

Two codes built from the same quasi-sequence are compared by fitting the
best degree-d polynomial map from the first onto the second and summarizing
the per-point errors by their median, scaled by the spread of the target
code. Degree 0 skips the fit and compares points directly. The measure is
asymmetric by design: the target code sets the scale.

The fit maps each source code affinely into [-1, 1] by its bounding box
before building the monomial basis. That spans the same polynomial space as
monomials of raw pixel coordinates, so in exact arithmetic the residuals do
not change, but the basis stays well conditioned at every image size and
degree. The normal equations are solved through one batched symmetric
eigendecomposition of the Gram matrix, which also gives each basis its
condition number; an ill-conditioned or rank-deficient basis goes to the
minimum-norm SVD fit.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import takewhile
from math import comb, inf, isnan
from typing import NamedTuple

import numpy as np

# Largest basis condition number for which the normal equations keep enough
# digits; beyond it the item is fitted by the SVD instead.
MAX_CONDITION = 1e6

# Largest code coordinate magnitude delta_median and the corpus sweep accept.
MAX_COORDINATE = 1e100

# basis cells (k items x q rows x m points) one fit of many may always gather:
# 1 MiB, below which the solver's fixed cost per call outweighs the memory
FIT_CELLS_FLOOR = 2**17


@lru_cache(maxsize=None)
def all_powers(d: int) -> tuple[tuple[int, int], ...]:
    """Exponent pairs (i, j) of the monomials x**i * y**j of degree 0 through d.

    Within each degree k the power of x ascends, so the order is (0,0),
    (0,1), (1,0), (0,2), (1,1), (2,0), ... The count is C(d+2, 2). A
    degree-d tuple is always a prefix of the degree-(d+1) tuple, which makes
    higher-degree bases supersets of lower. Results are cached.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    return tuple((i, k - i) for k in range(d + 1) for i in range(k + 1))


def _as_points(code) -> np.ndarray:
    """Accept a DensityCode or a plain (m, 2) array."""
    pts = getattr(code, "points", code)
    return np.asarray(pts, dtype=np.float64)


def _power_basis(s: np.ndarray, d: int) -> np.ndarray:
    """Monomial rows of coordinate-major points: (k, 2, m) -> (k, q, m).

    Rows follow :func:`all_powers`. Degree block j (rows j(j+1)/2 onward)
    is y times the first row of block j-1, then x times each row of block
    j-1: every row is one product of a lower row and a coordinate.
    """
    k, _, m = s.shape
    basis = np.empty((k, comb(d + 2, 2), m))
    basis[:, 0] = 1.0  # the (0, 0) exponent leads every degree
    for j in range(1, d + 1):
        lower, start = j * (j - 1) // 2, j * (j + 1) // 2
        np.multiply(basis[:, lower], s[:, 1], out=basis[:, start])
        block = basis[:, start + 1 : start + j + 1]
        np.multiply(basis[:, lower:start], s[:, :1], out=block)
    return basis


def basis_matrix(code, d: int) -> np.ndarray:
    """Monomial design matrix of (x, y) points: entry (r, t) = x_r**i * y_r**j.

    Column t has exponents (i, j) = all_powers(d)[t]; the (0, 0) exponent
    yields a column of ones.
    """
    pts = _as_points(code)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValueError("code must be a nonempty (m, 2) matrix")
    if d < 0:
        raise ValueError("d must be >= 0")
    return _power_basis(pts.T[None], d)[0].T


def least_squares_fit(B, W) -> tuple[np.ndarray, int, float]:
    """Minimum-norm least-squares solution T of B @ T ~ W.

    Solved by SVD with rank tolerance max(m, q) * eps relative to the
    largest singular value, so rank-deficient bases still give the
    minimum-norm coefficients. Returns (T, the numerical rank of B, the
    ratio of its largest to its smallest singular value, inf when the
    smallest is 0). Underdetermined systems (m < q) are rejected: they
    would interpolate noise instead of fitting.
    """
    B = np.asarray(B, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if B.ndim != 2 or W.ndim != 2 or B.shape[0] != W.shape[0]:
        raise ValueError("B and W must be 2-D with matching row counts")
    m, q = B.shape
    if m < q:
        raise ValueError(f"underdetermined fit: m={m} < q={q}")
    rcond = max(m, q) * np.finfo(np.float64).eps
    T, _, rank, sv = np.linalg.lstsq(B, W, rcond=rcond)
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0 else inf
    return T, int(rank), condition


class FitStack(NamedTuple):
    """Per-item results of :func:`_fit` for k items of m points each.

    ``coefficients`` apply to the source mapped into [-1, 1] (see
    :func:`_mapped_basis`); they, ``rank`` and ``condition`` (the basis
    condition number) are None at degree 0.
    """

    delta: np.ndarray  # (k,)
    residuals: np.ndarray  # (k, m)
    target_scale: np.ndarray  # (k,)
    coefficients: np.ndarray | None  # (k, q, 2)
    rank: np.ndarray | None  # (k,)
    condition: np.ndarray | None  # (k,)


def _median(x: np.ndarray) -> np.ndarray:
    """``np.median(x, axis=-1)`` of NaN-free rows, bit for bit, from one partition.

    numpy partitions at both central order statistics and at the last
    element (its NaN check); one pivot at h = m // 2 suffices, because every
    element left of it is at most the pivot, so the other central value of
    an even count is their maximum.
    """
    h = x.shape[-1] // 2
    part = np.partition(x, h, axis=-1)
    if x.shape[-1] % 2:
        return part[..., h]
    return (part[..., :h].max(axis=-1) + part[..., h]) / 2


def _norms(offsets: np.ndarray) -> np.ndarray:
    """Euclidean lengths of coordinate-major offsets: (k, 2, m) -> (k, m)."""
    dx, dy = offsets[:, 0], offsets[:, 1]
    return np.sqrt(dx * dx + dy * dy)


def _check_coordinates(*stacks: np.ndarray) -> None:
    # far beyond any image, and small enough that no product in the fit
    # overflows: the residuals stay finite, which keeps _median exact
    if not all(np.abs(X).max() <= MAX_COORDINATE for X in stacks):
        raise ValueError(
            f"code coordinates must be finite and at most {MAX_COORDINATE:g}"
        )


def _mapped_basis(V: np.ndarray, d: int) -> np.ndarray:
    """Degree-d basis of each source mapped into [-1, 1]: (k, 2, m) -> (k, q, m).

    Each axis maps by the source's bounding box, s = (2 v - (lo + hi)) /
    (hi - lo), with a zero-width axis mapped to 0. Entry-wise, the basis of
    a prefix with the same bounding box is a column prefix of this one.
    """
    lo = V.min(axis=2, keepdims=True)
    hi = V.max(axis=2, keepdims=True)
    width = hi - lo
    return _power_basis((2.0 * V - (lo + hi)) / np.where(width > 0, width, 1.0), d)


def _fit(V, W, d: int, a, b, basis=None, *, stacklevel=3) -> FitStack:
    """Median dissimilarity of the items (V[a], W[b]): the matcher's one solver.

    ``V`` and ``W`` are coordinate-major stacks of codes of m points each,
    shape (ks, 2, m) and (kt, 2, m), already checked; item i compares source
    points V[a][i].T with target points W[b][i].T. ``a`` and ``b`` are index
    arrays, so a source or target shared by several items is prepared once,
    or slices, which pair stacks item for item as views. :func:`delta_median`
    fits one pair, :func:`_fit_items` a list of them.

    Each source is mapped into [-1, 1] per axis by its bounding box, and the
    degree-d monomials of the mapped points form the basis B (``basis`` is
    the sources' :func:`_mapped_basis`, built here when None); at degree 0
    there is none and V is compared directly. Each source's Gram matrix
    G = B B^T is factored once by ``eigh``, G = U diag(lam) U^T, and its
    inverse formed from that. An item whose basis condition number
    sqrt(max lam / min lam) is at most MAX_CONDITION is solved with that
    inverse, followed by one refinement step that reuses it, and the rest go
    through :func:`least_squares_fit`. A call that sends any item to the SVD
    warns once (RuntimeWarning), ``stacklevel`` frames up: at the line that
    called delta_median or the sweep, naming how many and how many of those
    dropped rank. Each target's scale is the median distance of its points
    to their centroid. Items do not interact: each item's result is
    bit-identical to fitting its pair alone, which holds as long as numpy
    runs the stacked linear algebra item by item. The tests check this, and
    :func:`_fit_items` relies on it to equal delta_median.

    A call's fixed cost, a few dozen numpy calls, outweighs its arithmetic
    on short codes, so the work every call repeats is kept to what every fit
    needs: the placeholder eigenvalues, the SVD item list and the warning
    are made only when some source fails the condition test.
    """
    coefficients = rank = condition = None
    if d == 0:
        diff = V[a] - W[b]
    else:
        q = comb(d + 2, 2)
        if basis is None:
            basis = _mapped_basis(V, d)
        # per source: Gram matrix, its eigendecomposition and inverse
        gram = basis @ basis.transpose(0, 2, 1)
        # gram = u diag(lam) u^T with lam ascending; cond(gram) = cond(B)^2,
        # and a NaN or non-positive smallest eigenvalue also means the SVD
        lam, u = np.linalg.eigh(gram)
        solvable = lam[:, -1] <= MAX_CONDITION**2 * lam[:, 0]
        all_solvable = solvable.all()
        if not all_solvable:
            lam[~solvable] = 1.0  # placeholder: these items are fitted by SVD
        source_condition = np.sqrt(lam[:, -1] / lam[:, 0])
        inverse = (u / lam[:, None, :]) @ u.transpose(0, 2, 1)
        # per item: each picks up its source's basis and inverse
        basis, inverse, target = basis[a], inverse[a], W[b]
        k = len(target)
        coefficients = inverse @ (basis @ target.transpose(0, 2, 1))
        # One step of iterative refinement, on residuals taken from the basis
        # itself, wins back most of what squaring cond(B) in the normal
        # equations costs (1024^2 codes, d=7: about 2e-10 off an SVD fit).
        diff = coefficients.transpose(0, 2, 1) @ basis
        diff -= target
        coefficients -= inverse @ (basis @ diff.transpose(0, 2, 1))
        rank = np.full(k, q)
        condition = source_condition[a]
        by_svd = () if all_solvable else np.flatnonzero(~solvable[a])
        for i in by_svd:
            coefficients[i], rank[i], condition[i] = least_squares_fit(
                basis[i].T, target[i].T
            )
        if len(by_svd):
            warnings.warn(
                f"degree-{d} fit went to the SVD for {len(by_svd)} of {k} items (basis "
                f"condition above {MAX_CONDITION:g}: near-degenerate source points) "
                f"and dropped rank for {int((rank < q).sum())} of {k} (lowest rank "
                f"{int(rank.min())} of q={q}: collinear, or one value on an axis)",
                RuntimeWarning,
                stacklevel=stacklevel,
            )
        np.matmul(coefficients.transpose(0, 2, 1), basis, out=diff)
        diff -= target
        del basis, target  # the per-item bases are the largest arrays of a fit
    # per target: the median distance of its points to their centroid (the
    # centroid is np.mean's, bit for bit, without its wrapper's cost)
    centroid = np.add.reduce(W, axis=2, keepdims=True) / W.shape[2]
    target_scale = _median(_norms(W - centroid))[b]
    if not np.all(target_scale > 0.0):
        raise ValueError("degenerate target scale: target points coincide")
    residuals = _norms(diff)
    delta = 100.0 * _median(residuals) / target_scale
    return FitStack(delta, residuals, target_scale, coefficients, rank, condition)


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
    in order. In one process the walk is every length, ascending. In two
    (:func:`_walk_in_two`), a child made by os.fork walks them descending
    with every warning an error, writes its deltas straight into ``found``
    (shared memory holding NaN) and ends in os._exit, while this process
    walks them ascending. Each keeps its own live bases, and the child
    shares this process's other memory until either writes it. Each walk
    stops at the first length whose last delta the other has written: the
    child finishes lengths one after another from the longest, so this walk
    covers every length the child left, from the one where it raised,
    warned or died. Rows, warnings and errors are thus those of one
    process. This process always reaps the child, and kills it first if its
    own walk raises.
    """
    if not _walk_in_two(len(lengths)):
        yield lengths
        return
    import signal  # a second process alone needs it

    def unmet(walk):  # found[stop - 1], written last, is a NaN until written
        return takewhile(lambda length: isnan(found[length[2] - 1]), walk)

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


def _fit_items(stack: np.ndarray, tops, items: np.ndarray, d: int) -> np.ndarray:
    """The delta of each (m, source, target) item: :func:`_fit` over many pairs.

    ``stack`` is coordinate-major (n, 2, L), already checked; row r holds a
    code of tops[r] points, then zeros. ``items`` is (k, 3), sorted by m,
    then by source; the sources of one m are consecutive rows, each at
    least m points long, and a target may be any row. Each of the k deltas
    is delta_median(stack[i, :, :m].T, stack[j, :, :m].T, d).delta, bit for
    bit. The walk runs in ascending m, in one process or two (:func:`_shares`).

    One m's items are fitted in runs whose gathered bases (k items x q rows
    x m points) stay within the larger of half the live bases (n q L / 2
    cells) and :data:`FIT_CELLS_FLOOR`: on short codes the solver's cost is
    per call, and the floor makes nearly every m one call. A fit prepares
    each of its sources once and slices the targets from the lesser of the
    m's first source and least target. Each row keeps one live [-1, 1]-mapped
    basis, built for its prefix's bounding box over every length that
    shares the box (:func:`_box_runs`): a length takes its first columns,
    and a new basis is built only when the box grows.
    """
    import mmap  # loaded by a walk alone: delta_median needs no shared memory

    n, _, longest = stack.shape
    q = comb(d + 2, 2)
    key_m, source, target = items.T
    walked, starts = np.unique(key_m, return_index=True)
    bounds = np.append(starts, len(items))
    per_fit = np.maximum(1, max(n * q * longest // 2, FIT_CELLS_FLOOR) // (q * walked))
    lengths = list(zip(*[x.tolist() for x in (walked, bounds, bounds[1:], per_fit)]))
    # shared with a forked child; NaN marks a delta not found (_fit gives none)
    found = np.frombuffer(mmap.mmap(-1, 8 * len(items)))
    found[:] = np.nan
    if d:  # each row's live basis, for the lengths over lo up to end
        runs = [_box_runs(row[:, :m]) for row, m in zip(stack, tops)]
        live, live_lo, live_end = np.empty((n, q, longest)), [0] * n, [0] * n
    with _shares(lengths, found) as walk:
        for m, start, stop, step in walk:
            sources, targets = source[start:stop], target[start:stop]
            first = min(sources[0], targets.min())
            W = stack[first:, :, :m]
            for i0 in range(0, stop - start, step):
                a, b = sources[i0 : i0 + step], targets[i0 : i0 + step]
                s0, s1 = a[0], a[-1] + 1  # the fit's sources: consecutive rows
                basis = None
                if d:
                    for r in range(s0, s1):
                        if not live_lo[r] < m <= live_end[r]:  # map the run of m
                            k = np.searchsorted(runs[r], m)
                            end = live_end[r] = runs[r][k]
                            live_lo[r] = runs[r][k - 1]
                            live[r, :, :end] = _mapped_basis(stack[r, None, :, :end], d)
                    basis = live[s0:s1, :, :m]
                V = stack[s0:s1, :, :m]
                fit = _fit(V, W, d, a - s0, b - first, basis, stacklevel=4)
                found[start + i0 : start + i0 + len(a)] = fit.delta
    return found


@dataclass(frozen=True)
class DissimilarityReport:
    """The dissimilarity plus its per-point diagnostics.

    delta = 100 * median(residuals) / target_scale, where target_scale is
    the median distance of the target code's points to their centroid.
    ``m_source`` and ``m_target`` are the input code lengths before the
    cut to the common prefix of ``m_used`` points. ``coefficients`` map the
    source mapped into [-1, 1] by its bounding box (see :func:`_fit`), not
    raw pixel coordinates. ``rank`` is q unless the minimum-norm fit
    dropped directions; ``condition`` is the basis condition number,
    sqrt(max/min eigenvalue of its Gram matrix), or the singular-value
    ratio for a fit done by SVD. All three are None at degree 0.
    """

    delta: float
    residuals: np.ndarray
    target_scale: float
    m_used: int
    degree: int
    m_source: int
    m_target: int
    coefficients: np.ndarray | None = None  # (q, 2)
    rank: int | None = None
    condition: float | None = None


def delta_median(V, W, d: int) -> DissimilarityReport:
    """Median-based dissimilarity of code V against target code W.

    Codes of different length are compared on their common prefix (the
    shorter length), since prefixes of codes from the same sequence
    correspond point for point. With d = 0 the residuals are the direct
    per-point Euclidean distances; with d >= 1 they are the errors of the
    fitted degree-d polynomial map applied to V. The median of an even
    count is the mean of the two central order statistics. The fit is the
    solver :func:`_fit_items` runs on many pairs, as the sweep does, and the
    tests check that its deltas equal this function's bit for bit.
    """
    v = _as_points(V)
    w = _as_points(W)
    if v.ndim != 2 or w.ndim != 2 or v.shape[1] != 2 or w.shape[1] != 2:
        raise ValueError("codes must be (m, 2) matrices")
    if v.shape[0] == 0 or w.shape[0] == 0:
        raise ValueError("codes must be nonempty")
    m = min(v.shape[0], w.shape[0])
    source = np.ascontiguousarray(v[:m].T)[None]
    target = np.ascontiguousarray(w[:m].T)[None]
    _check_coordinates(source, target)
    if d < 0:
        raise ValueError("degree must be >= 0")
    q = comb(d + 2, 2)
    if d > 0 and m < q:
        raise ValueError(f"code too short for degree {d}: m={m} < q={q}")
    fit = _fit(source, target, d, slice(None), slice(None))
    return DissimilarityReport(
        delta=float(fit.delta[0]),
        residuals=fit.residuals[0],
        target_scale=float(fit.target_scale[0]),
        m_used=m,
        degree=d,
        m_source=v.shape[0],
        m_target=w.shape[0],
        coefficients=None if d == 0 else fit.coefficients[0],
        rank=None if d == 0 else int(fit.rank[0]),
        condition=None if d == 0 else float(fit.condition[0]),
    )
