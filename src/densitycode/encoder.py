"""Cumulative-inversion encoder producing ordered density codes.

Each quasi-uniform point in (0,1)^2 is mapped to continuous pixel
coordinates by inverting the image's row-marginal CDF along y, blending
the two bracketing pixel rows into a conditional density, and inverting
that row's CDF along x. Bin brackets come from a dichotomic search on the
discrete CDF; the fractional position inside a bin comes from linear
interpolation. Code points inherit the order of the quasi-sequence, which
is what makes two codes comparable point for point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .image_io import DensityField
from .quasirandom import QuasiSequence

CODE_FORMAT_TAG = "density-code v1"


@dataclass(frozen=True)
class EncodeParams:
    """Encoding knobs: background lift and mass-proportional length.

    The background lift is the density field's: ``lam``, when given, must
    equal it. ``alpha`` switches on mass-proportional code length; when
    absent the whole sequence is used; pass ``seq.prefix(k)`` to cap the
    length.
    """

    lam: float | None = None
    alpha: float | None = None


@dataclass(frozen=True)
class DensityCode:
    """Ordered m x 2 code-point matrix, columns (x, y) in pixel-side units.

    Coordinates lie in (0, S) with 0 at the image edge; consumers needing
    array indices subtract 0.5 and clamp. Order is semantically significant:
    point j of any two codes built from the same sequence correspond.
    """

    points: np.ndarray
    sx: int
    sy: int
    lam: float
    alpha: float | None
    polarity: str | None
    seq_name: str = "halton"

    @property
    def m(self) -> int:
        return self.points.shape[0]


def code_length(
    foreground_mass: float, alpha: float | None, available: int
) -> int:
    """Number of code points: round(alpha * mass), capped by the sequence.

    Without alpha the full available sequence is used. Rounding is half
    away from zero.
    """
    if available < 1:
        raise ValueError("no sequence points available")
    if foreground_mass <= 0:
        raise ValueError("foreground mass must be > 0")
    if alpha is None:
        return available
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be finite and > 0")
    # cap first: alpha * mass may overflow to inf, which has no floor
    m = math.floor(min(alpha * foreground_mass + 0.5, available))
    if m < 1:
        raise ValueError("empty code: alpha too small for this image")
    return m


def invert(field: DensityField, u) -> np.ndarray:
    """Map (m, 2) points of (0,1)^2 to continuous pixel coordinates (x, y).

    u[:, 1] inverts the row-marginal CDF (y), u[:, 0] the CDF of the row
    blended from the two bracketing pixel rows (x). A cumulative sum is
    linear, so that CDF is the same blend of the rows' zero-padded cumulative
    sums. Columns are bisected for all points in lockstep by flat-index
    gathers, keeping C(lo) <= target < C(hi): no bracket has zero width.
    """
    u = np.asarray(u, dtype=np.float64)
    if not np.all((u > 0.0) & (u < 1.0)):
        raise ValueError("points must lie strictly inside (0,1)^2")
    sy, sx = field.f.shape
    ux, uy = u[:, 0], u[:, 1]
    row_cdf = np.concatenate(([0.0], field.row_cdf))
    iy = np.searchsorted(row_cdf[1:-1], uy, side="right")
    wy = (uy - row_cdf[iy]) / (row_cdf[iy + 1] - row_cdf[iy])
    cum = np.zeros((sy + 1, sx + 1))  # padded row r holds pixel row r - 1
    np.cumsum(field.f, axis=1, out=cum[1:, 1:])
    cum = cum.ravel()
    above = iy * (sx + 1)
    below = above + (sx + 1)

    def blended(k):
        a = cum[above + k]
        return a + wy * (cum[below + k] - a)

    target = ux * blended(sx)
    lo = np.zeros_like(iy)
    hi = np.full_like(iy, sx)
    for _ in range((sx - 1).bit_length()):
        mid = (lo + hi) >> 1
        left = blended(mid) <= target
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
    c_lo = blended(lo)
    return np.column_stack((lo + (target - c_lo) / (blended(hi) - c_lo), iy + wy))


def encode(
    field: DensityField, seq: QuasiSequence, params: EncodeParams | None = None
) -> DensityCode:
    """Evaluate the inverse cumulative mapping at each sequence point.

    Each code point depends only on its own sequence point and is emitted
    in sequence order, so any prefix of the output equals the code of the
    same image at the shorter length, exactly.
    """
    if params is None:
        params = EncodeParams()
    if seq.n != 2:
        raise ValueError("sequence dimension must be 2")
    if params.lam is not None and params.lam != field.lam:
        raise ValueError(
            f"EncodeParams.lam {params.lam!r} does not match the density "
            f"field's lambda {field.lam!r}"
        )
    m = code_length(field.foreground_mass, params.alpha, len(seq))
    sy, sx = field.f.shape
    polarity = field.polarity.value if field.polarity is not None else None
    return DensityCode(
        points=invert(field, seq.points[:m]),
        sx=sx,
        sy=sy,
        lam=field.lam,
        alpha=params.alpha,
        polarity=polarity,
        seq_name="halton",
    )


def write_code_csv(code: DensityCode, path) -> None:
    """Write a code file: one header line, then m lines of ``x,y``.

    Floats are formatted with 17 significant digits, enough to round-trip
    doubles exactly.
    """
    alpha_s = "none" if code.alpha is None else f"{code.alpha:.17g}"
    polarity_s = code.polarity if code.polarity is not None else "none"
    header = (
        f"# {CODE_FORMAT_TAG}, n=2, m={code.m}, Sx={code.sx}, Sy={code.sy}, "
        f"lambda={code.lam:.17g}, alpha={alpha_s}, polarity={polarity_s}, "
        f"seq={code.seq_name}\n"
    )
    # one format call over Python floats, not one f-string per numpy row
    body = "%.17g,%.17g\n" * code.m % tuple(code.points.ravel().tolist())
    Path(path).write_text(header + body, encoding="utf-8")


def read_code_csv(path) -> DensityCode:
    """Parse a code file written by :func:`write_code_csv`.

    Unknown header keys are ignored so the format can grow. A point row
    that is not two finite numbers, or a point outside the image
    (0, Sx) x (0, Sy) the header gives, is rejected with its line number.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or not lines[0][1].lstrip().startswith("#"):
        raise ValueError("missing code-file header")
    header = lines[0][1].lstrip()[1:].strip()
    parts = [p.strip() for p in header.split(",")]
    if parts[0] != CODE_FORMAT_TAG:
        raise ValueError(f"unrecognized code-file format {parts[0]!r}")
    meta: dict[str, str] = {}
    for part in parts[1:]:
        if "=" in part:
            key, value = part.split("=", 1)
            meta[key.strip()] = value.strip()
    if int(meta.get("n", "2")) != 2:
        raise ValueError("only 2-D codes are supported")
    rows = []
    for lineno, line in lines[1:]:
        fields = line.split(",")
        try:
            if len(fields) != 2:
                raise ValueError(f"expected 2 fields, found {len(fields)}")
            rows.append((float(fields[0]), float(fields[1])))
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: {exc}") from None
    points = np.array(rows).reshape(-1, 2)
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}, line {lines[bad[0] + 1][0]}: non-finite coordinate")
    if "m" in meta and points.shape[0] != int(meta["m"]):
        raise ValueError(
            f"{path}: header says m={meta['m']}, found {points.shape[0]} points"
        )
    if "Sx" not in meta or "Sy" not in meta:
        raise ValueError(f"{path}: header lacks the image size Sx, Sy")
    sx, sy = int(meta["Sx"]), int(meta["Sy"])
    outside = np.flatnonzero(~((points > 0.0) & (points < (sx, sy))).all(axis=1))
    if outside.size:
        x, y = points[outside[0]].tolist()
        raise ValueError(
            f"{path}, line {lines[outside[0] + 1][0]}: point ({x!r}, {y!r}) "
            f"outside the image (0, {sx}) x (0, {sy})"
        )
    alpha_s = meta.get("alpha", "none")
    polarity_s = meta.get("polarity", "none")
    return DensityCode(
        points=points,
        sx=sx,
        sy=sy,
        lam=float(meta.get("lambda", "nan")),
        alpha=None if alpha_s == "none" else float(alpha_s),
        polarity=None if polarity_s == "none" else polarity_s,
        seq_name=meta.get("seq", "halton"),
    )
