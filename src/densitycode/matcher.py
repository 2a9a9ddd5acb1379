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
from math import comb
from typing import NamedTuple

import numpy as np

# Largest basis condition number for which the normal equations keep enough
# digits; beyond it the item is fitted by the SVD instead.
MAX_CONDITION = 1e6


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


def _power_basis(s: np.ndarray, exps: ExponentSet) -> np.ndarray:
    """Monomial rows of coordinate-major points: (k, n, m) -> (k, q, m).

    Row t is the product over coordinates i of s[:, i] ** exps[t][i], built
    by repeated multiplication: each monomial is an earlier one (its
    exponent with one unit fewer in its first nonzero place) times one
    coordinate.
    """
    k, n, m = s.shape
    row_of = {vec: t for t, vec in enumerate(exps.vectors)}
    basis = np.empty((k, exps.q, m))
    basis[:, 0] = 1.0  # the all-zeros exponent leads every set
    for t, vec in enumerate(exps.vectors[1:], 1):
        i = next(i for i, p in enumerate(vec) if p)
        lower = row_of[vec[:i] + (vec[i] - 1,) + vec[i + 1 :]]
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
    fit dropped directions.
    """

    coefficients: np.ndarray  # (q, n)
    degree: int | None
    m: int
    q: int
    rank: int


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
    T, _, rank, _ = np.linalg.lstsq(B, W, rcond=rcond)
    return TransformFit(coefficients=T, degree=degree, m=m, q=q, rank=int(rank))


class FitStack(NamedTuple):
    """Per-item results of :func:`fit_stack` for k items of m points each.

    ``coefficients`` apply to the source mapped into [-1, 1] (see
    :func:`fit_stack`); they and ``rank`` are None at degree 0.
    """

    delta: np.ndarray  # (k,)
    residuals: np.ndarray  # (k, m)
    target_scale: np.ndarray  # (k,)
    coefficients: np.ndarray | None  # (k, q, 2)
    rank: np.ndarray | None  # (k,)


def fit_stack(V: np.ndarray, W: np.ndarray, d: int) -> FitStack:
    """Median dissimilarity of k source codes against k targets in one pass.

    ``V`` and ``W`` are coordinate-major stacks, shape (k, 2, m): item i
    compares source points V[i].T with target points W[i].T. Each source is
    mapped into [-1, 1] per axis by its bounding box,
    s = (2 v - (lo + hi)) / (hi - lo), with a zero-width axis mapped to 0.
    The degree-d monomials of s form the basis B. Each item's Gram matrix
    G = B B^T is factored once, G = U diag(lam) U^T; an item whose basis
    condition number sqrt(max lam / min lam) is at most MAX_CONDITION is
    solved from that factorization, followed by one refinement step that
    reuses it, and the rest go through :func:`least_squares_fit`. Items do
    not interact: the tests check that each item's result is bit-identical
    to fitting it alone, which holds as long as numpy runs the stacked
    linear algebra item by item. Warns (RuntimeWarning) when a fit had to
    drop rank.
    """
    V = np.asarray(V, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if V.ndim != 3 or V.shape[1] != 2 or V.shape != W.shape or V.size == 0:
        raise ValueError("V and W must be nonempty (k, 2, m) stacks of one shape")
    if d < 0:
        raise ValueError("degree must be >= 0")
    k, _, m = V.shape
    coefficients = rank = None
    if d == 0:
        diff = V - W
    else:
        q = comb(d + 2, 2)  # before all_powers, which builds all q exponents
        if m < q:
            raise ValueError(f"code too short for degree {d}: m={m} < q={q}")
        exps = all_powers(2, d)
        lo = V.min(axis=2, keepdims=True)
        hi = V.max(axis=2, keepdims=True)
        width = hi - lo
        s = (2.0 * V - (lo + hi)) / np.where(width > 0, width, 1.0)
        basis = _power_basis(s, exps)
        gram = basis @ basis.transpose(0, 2, 1)
        rhs = basis @ W.transpose(0, 2, 1)
        # gram = u diag(lam) u^T with lam ascending; cond(gram) = cond(B)^2,
        # and a NaN or non-positive smallest eigenvalue also means the SVD
        lam, u = np.linalg.eigh(gram)
        solvable = lam[:, -1] <= MAX_CONDITION**2 * lam[:, 0]
        lam[~solvable] = 1.0  # placeholder: these items are fitted by SVD
        inverse = (u / lam[:, None, :]) @ u.transpose(0, 2, 1)
        coefficients = inverse @ rhs
        # One step of iterative refinement, on residuals taken from the basis
        # itself, wins back most of what squaring cond(B) in the normal
        # equations costs (1024^2 codes, d=7: about 2e-10 off an SVD fit).
        diff = coefficients.transpose(0, 2, 1) @ basis - W
        coefficients -= inverse @ (basis @ diff.transpose(0, 2, 1))
        rank = np.full(k, q)
        for i in np.flatnonzero(~solvable):
            fit = least_squares_fit(basis[i].T, W[i].T, degree=d)
            coefficients[i] = fit.coefficients
            rank[i] = fit.rank
        if (rank < q).any():
            warnings.warn(
                f"degree-{d} fit dropped rank for {int((rank < q).sum())} of {k} "
                f"source codes (lowest rank {int(rank.min())} of q={q}): the source "
                "points are degenerate (collinear, or one value on an axis)",
                RuntimeWarning,
                stacklevel=2,
            )
        diff = coefficients.transpose(0, 2, 1) @ basis - W
    # residuals and the target points' distances to their centroid share
    # one distance pass and one median call
    offsets = np.stack((diff, W - W.mean(axis=2, keepdims=True)))
    dx, dy = offsets[:, :, 0], offsets[:, :, 1]
    distances = np.sqrt(dx * dx + dy * dy)
    median_residual, target_scale = np.median(distances, axis=2)
    if not np.all(target_scale > 0.0):
        raise ValueError("degenerate target scale: target points coincide")
    delta = 100.0 * median_residual / target_scale
    residuals = distances[0]
    return FitStack(delta, residuals, target_scale, coefficients, rank)


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
        rank = int(fit.rank[0])
        transform = TransformFit(fit.coefficients[0], degree=d, m=m, q=q, rank=rank)
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
