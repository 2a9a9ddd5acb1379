"""Reference checks of densitycode outputs, run outside the timed region.

Each check returns a list of human-readable mismatch messages; an empty
list means the output passed. The references are written independently of
the package: exact rational radical inverses, a scalar inverse-CDF walk on
a density field rebuilt from the raw pixels, and a least-squares fit on
points first mapped into [-1, 1].
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np

ENCODE_TOL_PX = 1e-9
MATCH_REL_TOL = 1e-6
SSE_REL_TOL = 1e-9


def radical_inverse_exact(t: int, base: int) -> float:
    """Correctly rounded double of the base-`base` radical inverse of t."""
    value = Fraction(0)
    scale = Fraction(1, base)
    while t > 0:
        t, digit = divmod(t, base)
        value += digit * scale
        scale /= base
    return float(value)


def check_halton(points: np.ndarray, bases, indices) -> list[str]:
    """Row j of a Halton sequence must equal the exact inverse of j + 1."""
    problems = []
    for j in indices:
        for k, base in enumerate(bases):
            want = radical_inverse_exact(j + 1, base)
            got = float(points[j, k])
            if got != want:
                problems.append(f"halton[{j},{k}]={got!r} != exact {want!r}")
    return problems


def reference_field(pixels: np.ndarray, lam: float):
    """Density field and row CDF rebuilt from raw light-on-dark pixels."""
    h = np.asarray(pixels, dtype=np.float64)
    lo, hi = float(h.min()), float(h.max())
    g = (h - lo) / (hi - lo)
    c = lam * float(g.sum()) / g.size
    f = g + c
    f = f / f.sum()
    row_cdf = np.cumsum(f.sum(axis=1))
    return f, row_cdf / row_cdf[-1]


def _bracket(cdf, u: float) -> tuple[int, float]:
    """Bin k with C(k) <= u < C(k+1), C(0) = 0, and the offset inside it."""
    k = bisect_right(cdf, u)
    lo = cdf[k - 1] if k else 0.0
    return k, (u - lo) / (cdf[k] - lo)


def reference_point(f: np.ndarray, row_cdf: np.ndarray, ux: float, uy: float):
    """Scalar inverse-CDF walk: row marginal along y, blended row along x."""
    iy, wy = _bracket(row_cdf.tolist(), uy)
    row = f[0] * wy if iy == 0 else f[iy - 1] + wy * (f[iy] - f[iy - 1])
    col_cdf = np.cumsum(row)
    col_cdf /= col_cdf[-1]
    ix, wx = _bracket(col_cdf.tolist(), ux)
    return ix + wx, iy + wy


def check_encode(points: np.ndarray, pixels: np.ndarray, lam: float, indices) -> list[str]:
    """Sampled code points must match the scalar reference to 1e-9 px."""
    f, row_cdf = reference_field(pixels, lam)
    problems = []
    for j in indices:
        ux = radical_inverse_exact(j + 1, 2)
        uy = radical_inverse_exact(j + 1, 3)
        want = reference_point(f, row_cdf, ux, uy)
        got = points[j]
        err = max(abs(got[0] - want[0]), abs(got[1] - want[1]))
        if not err <= ENCODE_TOL_PX:
            problems.append(f"code point {j} off the reference by {err:.3g} px")
    return problems


def check_prefix(short: np.ndarray, full: np.ndarray) -> list[str]:
    """A shorter code must equal the longer code's prefix, bit for bit."""
    if short.shape[0] > full.shape[0]:
        return [f"short code has {short.shape[0]} > {full.shape[0]} points"]
    if not np.array_equal(short, full[: short.shape[0]]):
        return ["prefix law broken: shorter code differs from the longer code's prefix"]
    return []


def parse_code_csv(text: str) -> tuple[dict, np.ndarray]:
    """Header fields and points of a code file, parsed without densitycode."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    meta = {}
    for part in lines[0].lstrip("# ").split(",")[1:]:
        key, _, value = part.strip().partition("=")
        meta[key] = value
    points = np.array([[float(a) for a in ln.split(",")] for ln in lines[1:]])
    return meta, points.reshape(-1, 2)


def check_code_file(text: str, points: np.ndarray) -> list[str]:
    """A written code file must round-trip the code points exactly."""
    meta, parsed = parse_code_csv(text)
    if meta.get("m") != str(points.shape[0]):
        return [f"header m={meta.get('m')} but code has {points.shape[0]} points"]
    if not np.array_equal(parsed, points):
        return ["code file does not round-trip the code points"]
    return []


def monomial_exponents(d: int) -> list[tuple[int, int]]:
    return [(i, k - i) for k in range(d + 1) for i in range(k + 1)]


def reference_delta(v: np.ndarray, w: np.ndarray, d: int) -> tuple[float, float]:
    """Delta and residual sum of squares of a fit on points mapped to [-1, 1].

    Mapping the source points affinely into [-1, 1] spans the same
    polynomial space as the raw monomials, so in exact arithmetic the
    residuals are identical; numerically this basis is well conditioned.
    """
    m = min(v.shape[0], w.shape[0])
    v, w = v[:m], w[:m]
    lo, hi = v.min(axis=0), v.max(axis=0)
    s = (2.0 * v - (lo + hi)) / (hi - lo)
    B = np.column_stack([s[:, 0] ** i * s[:, 1] ** k for i, k in monomial_exponents(d)])
    coef = np.linalg.lstsq(B, w, rcond=None)[0]
    residuals = np.sqrt(((B @ coef - w) ** 2).sum(axis=1))
    scale = float(np.median(np.sqrt(((w - w.mean(axis=0)) ** 2).sum(axis=1))))
    return 100.0 * float(np.median(residuals)) / scale, float((residuals**2).sum())


def check_match(delta: float, v: np.ndarray, w: np.ndarray, d: int) -> list[str]:
    """Delta must agree with the [-1, 1]-mapped fit to 1e-6 relative."""
    want, _ = reference_delta(v, w, d)
    if not (math.isfinite(delta) and abs(delta - want) <= MATCH_REL_TOL * abs(want)):
        return [f"d={d}: delta {delta:.9g} vs [-1,1]-mapped fit {want:.9g}"]
    return []


def check_report(delta: float, residuals, target_scale: float, v: np.ndarray, w: np.ndarray) -> list[str]:
    """Delta must follow from its own residuals and the target code's scale.

    This holds for any fit, right or wrong, so it still applies where the
    fit itself cannot yet be held to the reference: one finite residual per
    common point, the scale is the median distance of the target points to
    their centroid, and delta is 100 * median(residuals) / scale.
    """
    m = min(v.shape[0], w.shape[0])
    residuals = np.asarray(residuals, dtype=np.float64)
    if residuals.shape != (m,) or not np.all(np.isfinite(residuals)):
        return [f"residuals are not {m} finite values"]
    w = w[:m]
    scale = float(np.median(np.sqrt(((w - w.mean(axis=0)) ** 2).sum(axis=1))))
    if not abs(target_scale - scale) <= 1e-12 * scale:
        return [f"target scale {target_scale!r} vs recomputed {scale!r}"]
    want = 100.0 * float(np.median(residuals)) / scale
    if not (math.isfinite(delta) and abs(delta - want) <= 1e-12 * abs(want)):
        return [f"delta {delta!r} does not follow from its residuals ({want!r})"]
    return []


def check_nested(sse_by_degree: dict[int, float]) -> dict[int, str]:
    """Degrees whose residual sum of squares exceeds the next lower degree's.

    The degree-d monomials are a subset of the degree-(d+1) ones, so the
    least-squares optimum can only improve. The median (delta) has no such
    law, which is why the sum of squares is checked instead.
    """
    problems = {}
    degrees = sorted(sse_by_degree)
    for lo, hi in zip(degrees, degrees[1:]):
        if sse_by_degree[hi] > sse_by_degree[lo] * (1.0 + SSE_REL_TOL):
            problems[hi] = (
                f"d={hi}: residual sum of squares {sse_by_degree[hi]:.9g} "
                f"exceeds d={lo}'s {sse_by_degree[lo]:.9g}"
            )
    return problems


def longest_separated_window(rows, step: float) -> float:
    """Width of the longest alpha run where related_max < unrelated_min."""
    best = run = 0
    for row in rows:
        ok = row["status"] == "ok" and float(row["related_max"]) < float(row["unrelated_min"])
        run = run + 1 if ok else 0
        best = max(best, run)
    return (best - 1) * step if best else 0.0


def check_sweep(rows, step: float, min_window: float = 0.2) -> list[str]:
    """Every ok row is finite and ordered; the bands separate over a window."""
    problems = []
    for row in rows:
        if row["status"] != "ok":
            continue
        values = [float(row[k]) for k in ("related_min", "related_max", "unrelated_min", "unrelated_max")]
        if not all(math.isfinite(x) for x in values):
            problems.append(f"alpha={row['alpha']}: non-finite value in an ok row")
        elif values[0] > values[1] or values[2] > values[3]:
            problems.append(f"alpha={row['alpha']}: min above max")
    window = longest_separated_window(rows, step)
    if window < min_window - 1e-9:
        problems.append(f"bands separate over {window:.2f} of alpha, need {min_window}")
    return problems
