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

import io
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .image_io import DensityField
    from .quasirandom import QuasiSequence

CODE_FORMAT_TAG = "density-code v1"
# a sequence takes 16 bytes a point and each code as much again; without
# --points a sweep encodes every image at the longest code its largest alpha asks for
MAX_POINTS = 10**7
# the background lift lambda of a density field, unless one is given
DEFAULT_LAMBDA = 1e-4
# cells of pixel rows in one band of invert's cumulative table: 1 MiB of doubles
_BAND_CELLS = 2**17


class Polarity(Enum):
    """Which end of the intensity range counts as figure; code headers name it."""

    LIGHT_ON_DARK = "light-on-dark"
    DARK_ON_LIGHT = "dark-on-light"


@dataclass(frozen=True)
class EncodeParams:
    """Encoding knobs: background lift and mass-proportional length.

    The background lift is the density field's: ``lam``, when given, must
    equal it. ``alpha`` switches on mass-proportional code length; when
    absent the whole sequence is used; pass ``halton(k)``, the sequence's
    first k points, to cap the length.
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

    The cumulative sums are built for one band of about ``_BAND_CELLS``
    cells of pixel rows at a time, plus the row above the band (the zero
    row above the first), in one reused table; each band's points are
    grouped by one stable sort and bisected together. Every point reads the
    same row sums and takes the same steps as with a full-image table.
    """
    u = np.asarray(u, dtype=np.float64)
    if not np.all((u > 0.0) & (u < 1.0)):
        raise ValueError("points must lie strictly inside (0,1)^2")
    sy, sx = field.f.shape
    ux, uy = u[:, 0], u[:, 1]
    row_cdf = np.concatenate(([0.0], field.row_cdf))
    iy = np.searchsorted(row_cdf[1:-1], uy, side="right")
    wy = (uy - row_cdf[iy]) / (row_cdf[iy + 1] - row_cdf[iy])
    band = min(max(1, _BAND_CELLS // (sx + 1)), sy)
    cum = np.zeros((band + 1, sx + 1))  # row k holds pixel row r0 + k - 1
    flat = cum.ravel()
    below = flat[sx + 1 :]  # each cell's row below, at the cell's own index

    def columns(r0, iy, wy, ux):
        r1 = min(r0 + band, sy)
        top = max(r0 - 1, 0)
        np.cumsum(field.f[top:r1], axis=1, out=cum[top - r0 + 1 : r1 - r0 + 1, 1:])
        above = (iy - r0) * (sx + 1)

        def blended(k):
            i = above + k
            a = flat[i]
            return a + wy * (below[i] - a)

        target = ux * blended(sx)
        lo = np.zeros_like(iy)
        hi = np.full_like(iy, sx)
        for _ in range((sx - 1).bit_length()):
            mid = (lo + hi) >> 1
            left = blended(mid) <= target
            lo += (mid - lo) * left  # integer steps: mid where left, else lo
            hi = mid + (hi - mid) * left
        c_lo = blended(lo)
        return lo + (target - c_lo) / (blended(hi) - c_lo)

    if band == sy:
        return np.column_stack((columns(0, iy, wy, ux), iy + wy))
    key = (iy // band).astype(np.min_scalar_type(sy // band))
    # O(m): numpy sorts keys of 16 bits or fewer by radix
    order = np.argsort(key, kind="stable")
    ends = np.cumsum(np.bincount(key, minlength=-(-sy // band))).tolist()
    x = np.empty_like(ux)
    for r0, start, end in zip(range(0, sy, band), [0, *ends], ends):
        if end > start:
            sel = order[start:end]
            x[sel] = columns(r0, iy[sel], wy[sel], ux[sel])
    return np.column_stack((x, iy + wy))


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
    if params.lam is not None and params.lam != field.lam:
        raise ValueError(
            f"EncodeParams.lam {params.lam!r} does not match the density "
            f"field's lambda {field.lam!r}"
        )
    m = code_length(field.foreground_mass, params.alpha, seq.m)
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

    Each coordinate is written as ``"%.17g"`` writes it, enough digits to
    round-trip a double exactly; coordinates in [1e-4, 1e9) are formatted
    by array arithmetic, byte for byte the same text. A point that
    :func:`read_code_csv` would reject (not finite, or outside the image)
    raises ``ValueError`` naming its row, and no file is written.
    """
    bad = _first_bad_point(code.points, code.sx, code.sy)
    if bad is not None:
        raise ValueError(f"{path}: points[{bad[0]}]: {bad[1]}")
    alpha_s = "none" if code.alpha is None else f"{code.alpha:.17g}"
    polarity_s = code.polarity if code.polarity is not None else "none"
    header = (
        f"# {CODE_FORMAT_TAG}, n=2, m={code.m}, Sx={code.sx}, Sy={code.sy}, "
        f"lambda={code.lam:.17g}, alpha={alpha_s}, polarity={polarity_s}, "
        f"seq={code.seq_name}\n"
    )
    Path(path).write_bytes(header.encode("utf-8") + _format_rows(code.points))


def _first_bad_point(points, sx: int, sy: int):
    """(row, reason) of the first point not finite or outside (0, sx) x (0, sy).

    Every non-finite row is reported before any outside one; None when all
    points are good. The whole array is tested first, and rows are searched
    only when that test fails.
    """
    finite = np.isfinite(points)
    if not finite.all():
        return int(np.flatnonzero(~finite.all(axis=1))[0]), "non-finite coordinate"
    # all finite: the least and the greatest coordinates decide
    if (
        points.min(initial=np.inf) > 0.0
        and points[:, 0].max(initial=-np.inf) < sx
        and points[:, 1].max(initial=-np.inf) < sy
    ):
        return None
    inside = (points > 0.0) & (points < (sx, sy))
    row = int(np.flatnonzero(~inside.all(axis=1))[0])
    x, y = points[row].tolist()
    return row, f"point ({x!r}, {y!r}) outside the image (0, {sx}) x (0, {sy})"


# %.17g prints a positive double in fixed notation when its decimal exponent
# is -4..16. _format_block takes the exponents -4..8: a value's text is then
# at most "0.000" and 17 digits. No double below 10**e rounds up to 10**e at
# 17 digits: its gap to 10**e exceeds half a unit of the 17th digit.
_DECADES = np.array([float(f"1e{e}") for e in range(-4, 10)])  # least double >= 10**e
_POW5 = 5 ** np.arange(21, dtype=np.uint64)
# ASCII of "0000".."9999", four bytes to a word
_DIGITS4 = np.ascontiguousarray(
    np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")
).view(np.uint32)[:, 0]


def _layout_keep():
    """Which bytes of a value's 24-byte frame %g prints.

    A frame is "0.000", 18 body bytes and a separator. The body holds a
    zero and the 17 digits; when e >= 0, the digits ahead of the point
    move one byte left and the point follows them. Row (e + 4) * 18 + nd
    serves a value whose last nonzero digit is digit nd - 1: %g drops
    trailing zeros, and the point when no fraction is left; for e < 0 it
    prints "0.", -e - 1 zeros and the digits.
    """
    e = np.arange(-4, 9)[:, None, None]
    nd = np.arange(18)[None, :, None]
    j = np.arange(24)
    body = j - 5
    printed = np.where(nd > e + 1, nd + 1, e + 1)  # body bytes printed, e >= 0
    shown = np.where(e < 0, (1 <= body) & (body <= nd), body < printed)
    keep = np.where(j < 5, j < np.where(e < 0, 1 - e, 0), shown | (j == 23))
    return keep.reshape(13 * 18, 24)


_KEEP = _layout_keep()


def _format_rows(points) -> bytes:
    """The bytes of ``"%.17g,%.17g\n"`` over the rows of finite positive points.

    Values in [1e-4, 1e9) go to :func:`_format_block` a block at a time, so
    that its temporaries stay small; any other value sends the whole body
    to the format operator.
    """
    v = np.asarray(points, dtype=np.float64).ravel()
    if not (v.size and _DECADES[0] <= v.min() and v.max() < _DECADES[-1]):
        return ("%.17g,%.17g\n" * (v.size // 2) % tuple(v.tolist())).encode()
    step = 4096  # values; an even count keeps each block's rows whole
    return b"".join(_format_block(v[i : i + step]) for i in range(0, v.size, step))


def _format_block(v) -> bytes:
    """``"%.17g,%.17g\n"`` over values in [1e-4, 1e9), x and y alternating.

    A value with decimal exponent e is M * 2**E, M a 53-bit integer. With
    k = 16 - e its 17 digits are D = M * 5**k * 2**(E + k) rounded half to
    even, and the product M * 5**k, up to 100 bits, is held in two uint64
    words built from 32-bit halves.
    """
    n, u = v.size, np.uint64
    e = np.searchsorted(_DECADES, v, side="right") - 5
    frac, exp2 = np.frexp(v)
    mant = (frac * 2.0**53).astype(u)
    k = 16 - e
    shift = (53 - k - exp2).astype(u)  # D = mant * 5**k / 2**shift, rounded
    low32, n32, one = u(0xFFFFFFFF), u(32), u(1)
    m0, m1 = mant & low32, mant >> n32
    f0, f1 = _POW5[k] & low32, _POW5[k] >> n32
    p00 = m0 * f0
    mid = m0 * f1 + m1 * f0
    lo = p00 + (mid << n32)  # mod 2**64; the carry goes to hi
    hi = m1 * f1 + (mid >> n32) + (lo < p00)
    digits = (hi << (u(64) - shift)) | (lo >> shift)
    dropped = lo & ((one << shift) - one)
    half = one << (shift - one)
    digits += (dropped > half) | ((dropped == half) & ((digits & one) == one))
    chunks = np.empty((n, 5), np.intp)  # d0, then d1..d16 four at a time
    chunks[:, 0], tail = np.divmod(digits, u(10**16))
    upper, lower = np.divmod(tail, u(10**8))
    chunks[:, 1], chunks[:, 2] = np.divmod(upper, u(10**4))
    chunks[:, 3], chunks[:, 4] = np.divmod(lower, u(10**4))
    raw = _DIGITS4[chunks].view(np.uint8)  # "000", d0..d16 as ASCII
    nonzero = np.ascontiguousarray(raw[:, 3:].T) != ord("0")  # (17, n)
    nd = (nonzero * np.arange(1, 18, dtype=np.uint8)[:, None]).max(axis=0)
    frame = np.empty((n, 24), np.uint8)  # bytes %g does not print stay unset
    frame[e < 0, :5] = np.frombuffer(b"0.000", np.uint8)
    frame[:, 5:23] = raw[:, 2:]  # "0" and the digits: their place after a point
    for j in range(e.max() + 1):  # digit j ahead of the point, the point after it
        np.copyto(frame[:, 5 + j], raw[:, 3 + j], where=e >= j)
        np.copyto(frame[:, 6 + j], ord("."), where=e == j)
    frame[0::2, 23] = ord(",")
    frame[1::2, 23] = ord("\n")
    return frame[np.take(_KEEP, (e + 4) * 18 + nd, axis=0)].tobytes()


def parse_text(parse, text: str, label: str):
    """``parse(text)``, or a ValueError: label, the text cut short, and that it
    is not an integer (parse is int) or a number (float)."""
    try:
        return parse(text)
    except ValueError:  # a bad literal, or an int past the digit limit
        kind = "an integer" if parse is int else "a number"
        shown = text if len(text) <= 24 else text[:20] + "..."
        raise ValueError(f"{label}{shown!r} is not {kind}") from None


def _read_text(path, newline=None) -> str:
    """The text of a UTF-8 file; a ValueError names a file that is not."""
    try:
        with open(path, newline=newline, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_table(path, columns: dict) -> list[dict]:
    """Rows of a CSV file with a header row, each as ``{column: parse(text)}``
    for every ``column: parse`` of ``columns``; a bad value names its line."""
    import csv  # loads here: encode and compare read no table

    reader = csv.DictReader(io.StringIO(_read_text(path, ""), newline=""))
    missing = [c for c in columns if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"{path}: missing columns {', '.join(missing)}")
    rows, items = [], columns.items()
    for row in reader:
        line = reader.line_num
        if any(row[c] is None for c in columns):  # DictReader's fill value
            raise ValueError(f"{path}: line {line}: fewer fields than the header")
        where = f"{path}: line {line}: column "
        rows.append({c: parse_text(p, row[c], f"{where}{c!r}: ") for c, p in items})
    return rows


def _header(path, meta: dict[str, str], key: str, parse, default=None):
    """``parse(meta[key])``, or a ValueError naming the file and the key."""
    return parse_text(parse, meta.get(key, default), f"{path}: header {key}=")


def read_code_csv(path) -> DensityCode:
    """Parse a code file written by :func:`write_code_csv`.

    Unknown header keys are ignored so the format can grow. A point row
    that is not two finite numbers, or a point outside the image
    (0, Sx) x (0, Sy) the header gives, is rejected with its line number.
    """
    text = _read_text(path)
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or not lines[0][1].lstrip().startswith("#"):
        raise ValueError(f"{path}: missing code-file header")
    header = lines[0][1].lstrip()[1:].strip()
    parts = [p.strip() for p in header.split(",")]
    if parts[0] != CODE_FORMAT_TAG:
        raise ValueError(f"{path}: unrecognized code-file format {parts[0]!r}")
    meta: dict[str, str] = {}
    for part in parts[1:]:
        if "=" in part:
            key, value = part.split("=", 1)
            meta[key.strip()] = value.strip()
    if _header(path, meta, "n", int, "2") != 2:
        raise ValueError(f"{path}: only 2-D codes are supported")
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
    if "m" in meta and points.shape[0] != _header(path, meta, "m", int):
        raise ValueError(
            f"{path}: header says m={meta['m']}, found {points.shape[0]} points"
        )
    if "Sx" not in meta or "Sy" not in meta:
        raise ValueError(f"{path}: header lacks the image size Sx, Sy")
    sx, sy = (_header(path, meta, key, int) for key in ("Sx", "Sy"))
    bad = _first_bad_point(points, sx, sy)
    if bad is not None:
        raise ValueError(f"{path}, line {lines[bad[0] + 1][0]}: {bad[1]}")
    alpha_s = meta.get("alpha", "none")
    polarity_s = meta.get("polarity", "none")
    return DensityCode(
        points=points,
        sx=sx,
        sy=sy,
        lam=_header(path, meta, "lambda", float, "nan"),
        alpha=None if alpha_s == "none" else _header(path, meta, "alpha", float),
        polarity=None if polarity_s == "none" else polarity_s,
        seq_name=meta.get("seq", "halton"),
    )
