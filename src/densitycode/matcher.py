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

import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import comb, inf
from typing import NamedTuple

import numpy as np

# Largest basis condition number for which the normal equations keep enough
# digits; beyond it the item is fitted by the SVD instead.
MAX_CONDITION = 1e6

# Largest code coordinate magnitude fit_stack accepts.
MAX_COORDINATE = 1e100


@dataclass(frozen=True)
class ExponentSet:
    """Ordered exponent n-tuples with component sum <= d."""

    n: int
    d: int
    vectors: tuple[tuple[int, ...], ...]

    @property
    def q(self) -> int:
        return len(self.vectors)


@lru_cache(maxsize=None)
def all_powers(n: int, d: int) -> ExponentSet:
    """Enumerate exponent n-tuples of total degree 0 through d.

    Within each total degree k the leading coordinate ascends, recursively,
    so for n = 2 the order is (0,0), (0,1), (1,0), (0,2), (1,1), (2,0), ...
    The count is C(n+d, d). A degree-d set is always a prefix of the
    degree-(d+1) set, which makes higher-degree bases supersets of lower.
    Results are cached; the returned set is immutable.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 0:
        raise ValueError("d must be >= 0")
    vectors: list[tuple[int, ...]] = []

    def build(prefix: tuple[int, ...], remaining: int) -> None:
        if len(prefix) == n - 1:
            vectors.append(prefix + (remaining,))
            return
        for p in range(remaining + 1):
            build(prefix + (p,), remaining - p)

    for k in range(d + 1):
        build((), k)
    assert len(vectors) == comb(n + d, d)
    return ExponentSet(n=n, d=d, vectors=tuple(vectors))


def _as_points(code) -> np.ndarray:
    """Accept a DensityCode or a plain (m, n) array."""
    pts = getattr(code, "points", code)
    return np.asarray(pts, dtype=np.float64)


@lru_cache(maxsize=None)
def _power_steps(exps: ExponentSet) -> tuple[tuple[int, int, int], ...]:
    """(t, lower, i) for each monomial row t after the first: row t is row
    ``lower`` (its exponent with one unit fewer in its first nonzero place)
    times coordinate i."""
    row_of = {vec: t for t, vec in enumerate(exps.vectors)}
    steps = []
    for t, vec in enumerate(exps.vectors[1:], 1):
        i = next(i for i, p in enumerate(vec) if p)
        steps.append((t, row_of[vec[:i] + (vec[i] - 1,) + vec[i + 1 :]], i))
    return tuple(steps)


def _power_basis(s: np.ndarray, exps: ExponentSet) -> np.ndarray:
    """Monomial rows of coordinate-major points: (k, n, m) -> (k, q, m).

    Row t is the product over coordinates i of s[:, i] ** exps[t][i], built
    by repeated multiplication (see :func:`_power_steps`).
    """
    k, n, m = s.shape
    basis = np.empty((k, exps.q, m))
    basis[:, 0] = 1.0  # the all-zeros exponent leads every set
    for t, lower, i in _power_steps(exps):
        np.multiply(basis[:, lower], s[:, i], out=basis[:, t])
    return basis


def basis_matrix(code, exps: ExponentSet) -> np.ndarray:
    """Monomial design matrix: entry (j, t) = prod_i points[j,i] ** exps[t][i].

    Exponent component i applies to code coordinate i, with coordinates
    ordered (x, y). The all-zeros tuple yields a column of ones. ``exps``
    must be a set :func:`all_powers` makes.
    """
    pts = _as_points(code)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("code must be a nonempty (m, n) matrix")
    if pts.shape[1] != exps.n:
        raise ValueError("exponent dimension does not match code dimension")
    if exps != all_powers(exps.n, exps.d):
        raise ValueError("exponent set must be one that all_powers makes")
    return _power_basis(pts.T[None], exps)[0].T


@dataclass(frozen=True)
class TransformFit:
    """Least-squares polynomial-map coefficients, one column per output axis.

    ``rank`` is the numerical rank of the basis: q unless the minimum-norm
    fit dropped directions. ``condition`` is the basis condition number,
    the ratio of its largest to its smallest singular value (inf when the
    smallest is 0).
    """

    coefficients: np.ndarray  # (q, n)
    degree: int | None
    m: int
    q: int
    rank: int
    condition: float | None = None


def least_squares_fit(B, W, degree: int | None = None) -> TransformFit:
    """Minimum-norm least-squares solution T of B @ T ~ W.

    Solved by SVD with rank tolerance max(m, q) * eps relative to the
    largest singular value, so rank-deficient bases still give the
    minimum-norm coefficients. Underdetermined systems (m < q) are
    rejected: they would interpolate noise instead of fitting.
    """
    B = np.asarray(B, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if B.ndim != 2 or W.ndim != 2 or B.shape[0] != W.shape[0]:
        raise ValueError("B and W must be 2-D with matching row counts")
    m, q = B.shape
    if m < q:
        if degree is not None:
            raise ValueError(
                f"code too short for degree {degree}: m={m} < q={q}"
            )
        raise ValueError(f"underdetermined fit: m={m} < q={q}")
    rcond = max(m, q) * np.finfo(np.float64).eps
    T, _, rank, sv = np.linalg.lstsq(B, W, rcond=rcond)
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0 else inf
    return TransformFit(T, degree=degree, m=m, q=q, rank=int(rank), condition=condition)


class FitStack(NamedTuple):
    """Per-item results of :func:`fit_stack` for k items of m points each.

    ``coefficients`` apply to the source mapped into [-1, 1] (see
    :func:`fit_stack`); they, ``rank`` and ``condition`` (the basis
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


def _pair_columns(pairs, ks: int, kt: int) -> tuple[np.ndarray, np.ndarray]:
    """Source and target index columns of a (k, 2) integer pair array."""
    pairs = np.asarray(pairs)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
        raise ValueError("pairs must be a (k, 2) integer array")
    a, b = pairs[:, 0], pairs[:, 1]
    if len(pairs) == 0 or min(a.min(), b.min()) < 0 or a.max() >= ks or b.max() >= kt:
        raise ValueError(
            f"pairs must index {ks} sources and {kt} targets, at least one pair"
        )
    return a, b


def fit_stack(V: np.ndarray, W: np.ndarray, d: int, pairs=None) -> FitStack:
    """Median dissimilarity of k source codes against k targets in one pass.

    ``V`` and ``W`` are coordinate-major stacks of codes of m points each,
    shape (ks, 2, m) and (kt, 2, m). Without ``pairs``, ks = kt = k and item
    i compares source points V[i].T with target points W[i].T. With a (k, 2)
    integer array ``pairs``, item i compares V[a].T with W[b].T for
    (a, b) = pairs[i], so a source or target shared by several items is
    prepared once. Each source is mapped into [-1, 1] per axis by its
    bounding box, s = (2 v - (lo + hi)) / (hi - lo), with a zero-width axis
    mapped to 0. The degree-d monomials of s form the basis B. Each source's
    Gram matrix G = B B^T is factored once, G = U diag(lam) U^T, and its
    inverse formed from that. An item whose basis condition number
    sqrt(max lam / min lam) is at most MAX_CONDITION is solved with that
    inverse, followed by one refinement step that reuses it, and the rest go
    through :func:`least_squares_fit`. Each target's scale is the median
    distance of its points to their centroid. Items do not interact: the
    tests check that each item's result is bit-identical to fitting its pair
    alone, which holds as long as numpy runs the stacked linear algebra item
    by item. Warns (RuntimeWarning) when a fit had to drop rank.
    """
    V = np.asarray(V, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    # with pairs, V and W need only share (2, m)
    one_shape = V.shape == W.shape if pairs is None else V.shape[1:] == W.shape[1:]
    if V.ndim != 3 or V.shape[1] != 2 or not one_shape or V.size == 0 or W.size == 0:
        raise ValueError(
            "V and W must be nonempty (k, 2, m) stacks of one shape "
            "(with pairs: of one m)"
        )
    if pairs is None:
        a = b = slice(None)  # item i pairs V[i] with W[i]: views, no copies
        k = len(V)
    else:
        a, b = _pair_columns(pairs, len(V), len(W))
        k = len(a)
    # far beyond any image, and small enough that no product in the fit
    # overflows: the residuals stay finite, which keeps _median exact
    if not all(np.abs(X).max() <= MAX_COORDINATE for X in (V, W)):
        raise ValueError(
            f"code coordinates must be finite and at most {MAX_COORDINATE:g}"
        )
    if d < 0:
        raise ValueError("degree must be >= 0")
    m = V.shape[2]
    coefficients = rank = condition = None
    if d == 0:
        diff = V[a] - W[b]
    else:
        q = comb(d + 2, 2)  # before all_powers, which builds all q exponents
        if m < q:
            raise ValueError(f"code too short for degree {d}: m={m} < q={q}")
        exps = all_powers(2, d)
        # per source: basis, Gram matrix, its eigendecomposition and inverse
        lo = V.min(axis=2, keepdims=True)
        hi = V.max(axis=2, keepdims=True)
        width = hi - lo
        s = (2.0 * V - (lo + hi)) / np.where(width > 0, width, 1.0)
        basis = _power_basis(s, exps)
        gram = basis @ basis.transpose(0, 2, 1)
        # gram = u diag(lam) u^T with lam ascending; cond(gram) = cond(B)^2,
        # and a NaN or non-positive smallest eigenvalue also means the SVD
        lam, u = np.linalg.eigh(gram)
        solvable = lam[:, -1] <= MAX_CONDITION**2 * lam[:, 0]
        lam[~solvable] = 1.0  # placeholder: these items are fitted by SVD
        source_condition = np.sqrt(lam[:, -1] / lam[:, 0])
        inverse = (u / lam[:, None, :]) @ u.transpose(0, 2, 1)
        # per item: each picks up its source's basis and inverse
        basis, inverse, target = basis[a], inverse[a], W[b]
        coefficients = inverse @ (basis @ target.transpose(0, 2, 1))
        # One step of iterative refinement, on residuals taken from the basis
        # itself, wins back most of what squaring cond(B) in the normal
        # equations costs (1024^2 codes, d=7: about 2e-10 off an SVD fit).
        diff = coefficients.transpose(0, 2, 1) @ basis - target
        coefficients -= inverse @ (basis @ diff.transpose(0, 2, 1))
        rank = np.full(k, q)
        condition = source_condition[a]
        for i in np.flatnonzero(~solvable[a]):
            fit = least_squares_fit(basis[i].T, target[i].T, degree=d)
            coefficients[i], rank[i] = fit.coefficients, fit.rank
            condition[i] = fit.condition
        if (rank < q).any():
            warnings.warn(
                f"degree-{d} fit dropped rank for {int((rank < q).sum())} of {k} "
                f"source codes (lowest rank {int(rank.min())} of q={q}): the source "
                "points are degenerate (collinear, or one value on an axis)",
                RuntimeWarning,
                stacklevel=2,
            )
        diff = coefficients.transpose(0, 2, 1) @ basis - target
    # per target: the median distance of its points to their centroid
    target_scale = _median(_norms(W - W.mean(axis=2, keepdims=True)))[b]
    if not np.all(target_scale > 0.0):
        raise ValueError("degenerate target scale: target points coincide")
    residuals = _norms(diff)
    delta = 100.0 * _median(residuals) / target_scale
    return FitStack(delta, residuals, target_scale, coefficients, rank, condition)


@dataclass(frozen=True)
class DissimilarityReport:
    """The dissimilarity plus its per-point diagnostics.

    delta = 100 * median(residuals) / target_scale, where target_scale is
    the median distance of the target code's points to their centroid.
    ``m_source`` and ``m_target`` are the input code lengths before the
    cut to the common prefix of ``m_used`` points. ``transform`` maps the
    source mapped into [-1, 1] by its bounding box (see :func:`fit_stack`),
    not raw pixel coordinates; it is None at degree 0.
    """

    delta: float
    residuals: np.ndarray
    target_scale: float
    m_used: int
    degree: int
    m_source: int
    m_target: int
    transform: TransformFit | None = None

    @property
    def rank(self) -> int | None:
        """The fit's rank: q unless the minimum-norm fit dropped directions."""
        return None if self.transform is None else self.transform.rank

    @property
    def condition(self) -> float | None:
        """The basis condition number: sqrt(max/min eigenvalue of its Gram
        matrix), or the singular-value ratio for a fit done by SVD."""
        return None if self.transform is None else self.transform.condition


def delta_median(V, W, d: int) -> DissimilarityReport:
    """Median-based dissimilarity of code V against target code W.

    Codes of different length are compared on their common prefix (the
    shorter length), since prefixes of codes from the same sequence
    correspond point for point. With d = 0 the residuals are the direct
    per-point Euclidean distances; with d >= 1 they are the errors of the
    fitted degree-d polynomial map applied to V. The median of an even
    count is the mean of the two central order statistics. This is the
    one-item case of :func:`fit_stack`, and the tests check that the result
    is bit-identical to that pair's inside a stack.
    """
    v = _as_points(V)
    w = _as_points(W)
    if v.ndim != 2 or w.ndim != 2 or v.shape[1] != 2 or w.shape[1] != 2:
        raise ValueError("codes must be (m, 2) matrices")
    if v.shape[0] == 0 or w.shape[0] == 0:
        raise ValueError("codes must be nonempty")
    m = min(v.shape[0], w.shape[0])
    fit = fit_stack(
        np.ascontiguousarray(v[:m].T)[None], np.ascontiguousarray(w[:m].T)[None], d
    )
    transform = None
    if d > 0:
        q = fit.coefficients.shape[1]
        rank, condition = int(fit.rank[0]), float(fit.condition[0])
        transform = TransformFit(
            fit.coefficients[0], degree=d, m=m, q=q, rank=rank, condition=condition
        )
    return DissimilarityReport(
        delta=float(fit.delta[0]),
        residuals=fit.residuals[0],
        target_scale=float(fit.target_scale[0]),
        m_used=m,
        degree=d,
        m_source=v.shape[0],
        m_target=w.shape[0],
        transform=transform,
    )
