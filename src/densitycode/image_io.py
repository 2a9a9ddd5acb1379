"""Grayscale image loading and the normalization / density-field pipeline.

PGM (P2/P5, maxval up to 65535) is parsed natively so pixel values are
bit-exact, and kept at the file's integer width; PNG is optional and goes
through Pillow's luminance conversion. All arithmetic is double precision.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from .encoder import DEFAULT_LAMBDA, Polarity

# a header field, or a comment (run to end of line) to skip; a comment may
# touch a field, and whitespace separates the rest
_HEADER_FIELD = re.compile(rb"#[^\n\r]*|[^\s#]+")
# samples write_pgm rounds and casts in one block: 512 KiB of doubles
_WRITE_BLOCK_CELLS = 2**16


@dataclass(frozen=True)
class GrayImage:
    """2-D array of finite, nonnegative pixel values, at least 2x2.

    Unsigned-integer and float64 pixels are kept as given (a loaded PGM is
    uint8 or uint16, 1 or 2 bytes a pixel); any other dtype is converted to
    float64. The pixels are checked and summarized when the image is built:
    ``lo`` and ``hi`` are their least and greatest values, as floats, so the
    steps that need them do not scan the pixels again.
    """

    pixels: np.ndarray
    lo: float = field(init=False, compare=False, repr=False)
    hi: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.dtype.kind != "u":
            px = px.astype(np.float64, copy=False)
        if px.ndim != 2 or px.shape[0] < 2 or px.shape[1] < 2:
            raise ValueError("image smaller than 2x2")
        lo, hi = float(px.min()), float(px.max())  # NaN fails both tests
        if not (lo >= 0 and hi < math.inf):
            raise ValueError("pixel values must be finite and >= 0")
        object.__setattr__(self, "pixels", px)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


@dataclass(frozen=True)
class NormalizedImage:
    """Contrast-normalized image with pixels in [0, 1].

    Produced by :func:`normalize`, which guarantees the min is exactly 0 and
    the max exactly 1. ``foreground_mass`` is the plain sum of all values.
    """

    pixels: np.ndarray
    foreground_mass: float
    polarity: Polarity


@dataclass(frozen=True)
class DensityField:
    """Strictly positive discrete probability array over the image grid.

    ``f`` sums to 1 and every cell exceeds 0 thanks to the uniform
    background lift ``c``; ``row_cdf`` holds the cumulative normalized row
    sums (the marginal over image rows), computed once per field.
    """

    f: np.ndarray
    c: float
    lam: float
    row_cdf: np.ndarray
    foreground_mass: float
    polarity: Polarity | None = None


def _p2_samples(raster: bytes, count: int) -> np.ndarray:
    """The first ``count`` samples of a P2 raster, as int64.

    '#' comments run to end of line. Every sample must be all decimal
    digits; one too large for int64 saturates, which every maxval rejects.
    """
    text = re.sub(rb"#[^\n\r]*", b"", raster)
    byte = np.frombuffer(text, dtype=np.uint8)
    space = (byte == 0x20) | (byte - 0x09 <= 4)  # space, or one of \t \n \v \f \r
    # one past the last byte of each sample
    ends = np.flatnonzero(~space & np.append(space[1:], True)) + 1
    if len(ends) < count:
        raise ValueError("truncated P2 raster")
    end = ends[count - 1]
    if not np.all(space[:end] | (byte[:end] - 0x30 <= 9)):
        raise ValueError("malformed P2 raster: a sample is not a decimal number")
    return np.fromstring(text[:end], dtype=np.int64, sep=" ")


def load_pgm(path) -> GrayImage:
    """Decode a P2 (ASCII) or P5 (binary) PGM file bit-exactly.

    Sample values are kept on the file's native integer scale, in the
    smallest unsigned type that holds maxval: uint8 up to 255, otherwise
    uint16 in native byte order, in a writable array of their own. maxval
    up to 65535 is supported; P5 samples are two bytes big-endian when
    maxval > 255, per the Netpbm convention. A sample above maxval is
    refused.
    """
    data = Path(path).read_bytes()
    matches = (m for m in _HEADER_FIELD.finditer(data) if m[0][:1] != b"#")
    fields = list(islice(matches, 4))  # magic, width, height, maxval
    magic = fields[0][0] if fields else b""
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"unsupported PNM magic {magic!r} (expected P2 or P5)")
    try:
        width, height, maxval = (int(m[0]) for m in fields[1:])
    except ValueError as exc:
        raise ValueError("malformed PGM header") from exc
    i = fields[3].end()
    if width < 2 or height < 2:
        raise ValueError("image smaller than 2x2")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"maxval {maxval} out of range [1, 65535]")
    count = width * height
    dtype = np.dtype("u1" if maxval <= 255 else "u2")
    if magic == b"P2":
        # each sample takes a digit and the separator before it
        if len(data) - i < 2 * count:
            raise ValueError("truncated P2 raster")
        samples = _p2_samples(data[i:], count)
        if samples.max() > maxval:  # checked before the cast can wrap it
            raise ValueError("sample value exceeds declared maxval")
    else:
        j = i + 1  # exactly one whitespace byte separates header from raster
        if len(data) - j < count * dtype.itemsize:
            raise ValueError("truncated P5 raster")
        samples = np.frombuffer(data, dtype.newbyteorder(">"), count, offset=j)
    img = GrayImage(pixels=samples.astype(dtype).reshape(height, width))
    if img.hi > maxval:
        raise ValueError("sample value exceeds declared maxval")
    return img


def load_png(path) -> GrayImage:
    """Decode a PNG as grayscale via Pillow; color inputs use luminance."""
    try:
        from PIL import Image
    except ImportError as exc:
        raise ValueError(
            "PNG support requires pillow (pip install densitycode[png])"
        ) from exc
    with Image.open(path) as im:
        if im.mode not in ("L", "I", "I;16", "I;16B", "I;16L"):
            im = im.convert("L")
        arr = np.asarray(im, dtype=np.float64)
    return GrayImage(pixels=arr)


def load_image(path) -> GrayImage:
    """Load a grayscale image, sniffing PGM vs PNG from the file's magic."""
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"unreadable file: {path}")
    with open(path, "rb") as fh:
        head = fh.read(8)
    if head[:2] in (b"P2", b"P5"):
        return load_pgm(path)
    if head == b"\x89PNG\r\n\x1a\n":
        return load_png(path)
    raise ValueError(f"unsupported image format in {path}")


def write_pgm(pixels, path, maxval: int = 255, binary: bool = True) -> None:
    """Write samples, rounded once, as P5 (binary) or P2 (ASCII) PGM.

    The samples are rounded, range-checked and cast to 8 or 16 bits one
    block of rows at a time, into the one array the raster is written
    from; no rounded or float copy of the whole input is made. Anything
    that cannot be written is refused before the file is opened.
    """
    arr = np.asarray(pixels)
    if arr.ndim != 2:
        raise ValueError("PGM output requires a 2-D array")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"maxval {maxval} out of range [1, 65535]")
    if not arr.size:
        raise ValueError("PGM output requires at least one sample")
    height, width = arr.shape
    samples = np.empty((height, width), ">u2" if maxval > 255 else "u1")
    step = max(1, _WRITE_BLOCK_CELLS // width)
    for r in range(0, height, step):
        block = arr[r : r + step].astype(np.float64)
        np.rint(block, out=block)
        if not (block.min() >= 0 and block.max() <= maxval):  # NaN fails both
            raise ValueError("sample values out of range for maxval")
        samples[r : r + step] = block
    if binary:
        magic, body = "P5", samples  # written through its buffer, not copied
    else:
        rows = (" ".join(map(str, row)) + "\n" for row in samples.tolist())
        magic, body = "P2", "".join(rows).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{width} {height}\n{maxval}\n".encode("ascii"))
        fh.write(body)


def normalize(img: GrayImage, polarity: Polarity) -> NormalizedImage:
    """Rescale pixel values to [0, 1] with the figure mapped toward 1.

    LIGHT_ON_DARK keeps the orientation, DARK_ON_LIGHT flips it. Flat images
    (max == min) are rejected: the rescaling is undefined for them.
    """
    h, lo, hi = img.pixels, img.lo, img.hi
    if hi == lo:
        raise ValueError("degenerate contrast: image is flat (max == min)")
    # integer pixels promote to float64 exactly: the same bits as from doubles
    if polarity is Polarity.LIGHT_ON_DARK:
        g = np.subtract(h, lo, dtype=np.float64)
    elif polarity is Polarity.DARK_ON_LIGHT:
        g = np.subtract(hi, h, dtype=np.float64)
    else:
        raise ValueError(f"unknown polarity {polarity!r}")
    g /= hi - lo
    return NormalizedImage(
        pixels=g, foreground_mass=float(g.sum()), polarity=polarity
    )


def make_density_field(
    nimg: NormalizedImage, lam: float = DEFAULT_LAMBDA
) -> DensityField:
    """Lift the normalized image into a strictly positive probability array.

    Adds the constant c = lam * mass / (width * height) to every cell before
    renormalizing, a faint background lighting that keeps every cumulative
    sum strictly increasing and therefore invertible. The row-marginal CDF
    is computed here, once per field, in new arrays: ``nimg`` is left as it was.
    """
    return _lift(nimg, lam, in_place=False)


def density_field(
    img: GrayImage, polarity: Polarity, lam: float = DEFAULT_LAMBDA
) -> DensityField:
    """``make_density_field(normalize(img, polarity), lam)``, with no second canvas."""
    return _lift(normalize(img, polarity), lam, in_place=True)


def _lift(nimg: NormalizedImage, lam: float, in_place: bool) -> DensityField:
    if not 0 < lam < math.inf:
        raise ValueError("lambda must be finite and > 0")
    g = np.asarray(nimg.pixels, dtype=np.float64)
    mass = float(nimg.foreground_mass)
    if mass <= 0:
        raise ValueError("foreground mass must be > 0")
    c = lam * mass / g.size
    f = np.add(g, c, out=g if in_place else None)
    total = float(f.sum())
    if not math.isfinite(total):
        raise ValueError("lambda too large: the background lift overflows")
    f /= total
    row_cdf = np.cumsum(f.sum(axis=1))
    row_cdf = row_cdf / row_cdf[-1]
    return DensityField(f, c, lam, row_cdf, mass, nimg.polarity)
