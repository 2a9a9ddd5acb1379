"""Tests for image loading, normalization, and density-field construction."""

import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import densitycode.image_io as image_io_module
from densitycode import (
    GrayImage,
    NormalizedImage,
    Polarity,
    density_field,
    encode,
    generate_figure,
    halton,
    load_image,
    load_pgm,
    make_density_field,
    normalize,
    write_pgm,
)


def test_gray_image_validation():
    with pytest.raises(ValueError):
        GrayImage(pixels=np.zeros((1, 5)))
    for bad in (-2.0, -1e-300, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite and >= 0"):
            GrayImage(pixels=np.array([[1.0, bad], [0.0, 1.0]]))
    negative_zero = GrayImage(pixels=np.array([[1.0, -0.0], [0.0, 1.0]]))
    assert np.signbit(negative_zero.pixels[0, 1])


def test_pgm_p5_2x2(tmp_path):
    path = tmp_path / "tiny.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0]))
    img = load_pgm(path)
    assert img.pixels.shape == (2, 2)
    assert np.array_equal(img.pixels, [[0.0, 255.0], [255.0, 0.0]])


def test_pgm_p2_equals_p5(tmp_path):
    ascii_path = tmp_path / "a.pgm"
    binary_path = tmp_path / "b.pgm"
    ascii_path.write_bytes(b"P2\n# a comment\n3 2\n255\n0 10 20\n30 40 250\n")
    binary_path.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 10, 20, 30, 40, 250]))
    assert np.array_equal(load_pgm(ascii_path).pixels, load_pgm(binary_path).pixels)


def test_pgm_16bit_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.integers(0, 65536, size=(5, 7))
    path = tmp_path / "deep.pgm"
    write_pgm(samples, path, maxval=65535, binary=True)
    assert np.array_equal(load_pgm(path).pixels, samples.astype(float))


def test_pgm_ascii_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    samples = rng.integers(0, 256, size=(4, 6))
    path = tmp_path / "plain.pgm"
    write_pgm(samples, path, maxval=255, binary=False)
    assert np.array_equal(load_pgm(path).pixels, samples.astype(float))


def test_pgm_p2_equals_p5_on_a_16bit_image(tmp_path):
    samples = np.random.default_rng(2).integers(0, 65536, size=(200, 300))
    write_pgm(samples, tmp_path / "a.pgm", maxval=65535, binary=False)
    write_pgm(samples, tmp_path / "b.pgm", maxval=65535, binary=True)
    ascii_pixels = load_pgm(tmp_path / "a.pgm").pixels
    assert np.array_equal(ascii_pixels, load_pgm(tmp_path / "b.pgm").pixels)
    assert np.array_equal(ascii_pixels, samples.astype(float))


def test_pgm_p2_comments_leading_zeros_and_trailing_text(tmp_path):
    path = tmp_path / "odd.pgm"
    path.write_bytes(
        b"P2\n3 2\n65535#c\n0 00010#x 9\n 20\r\n\t30\x0b40\x0c0065535 -1 trailing text"
    )
    assert np.array_equal(load_pgm(path).pixels, [[0, 10, 20], [30, 40, 65535]])


@pytest.mark.parametrize("sample", [b"-3", b"+3", b"1_0", b"1.5", b"0x1", b"\xff"])
def test_pgm_p2_rejects_samples_that_are_not_decimal_numbers(tmp_path, sample):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n1 2 3 " + sample + b"\n")
    with pytest.raises(ValueError, match="not a decimal number"):
        load_pgm(path)


def test_pgm_p2_sample_beyond_int64_exceeds_maxval(tmp_path):
    path = tmp_path / "big.pgm"
    path.write_bytes(b"P2\n2 2\n65535\n1 2 3 " + b"9" * 40 + b"\n")
    with pytest.raises(ValueError, match="exceeds declared maxval"):
        load_pgm(path)


def test_pgm_rejects_truncated_and_tiny(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(ValueError, match="truncated"):
        load_pgm(bad)
    tiny = tmp_path / "tiny.pgm"
    tiny.write_bytes(b"P5\n1 4\n255\n\x00\x01\x02\x03")
    with pytest.raises(ValueError, match="smaller"):
        load_pgm(tiny)


@pytest.mark.parametrize(
    "header, raster",
    [
        (b"P5\n2 2\n200\n", bytes([0, 200, 255, 1])),
        (b"P5\n2 2\n1000\n", bytes.fromhex("0000 03e8 ffff 0001")),
    ],
    ids=["8-bit", "16-bit"],
)
def test_pgm_p5_rejects_samples_above_maxval(tmp_path, header, raster):
    path = tmp_path / "over.pgm"
    path.write_bytes(header + raster)
    with pytest.raises(ValueError, match="exceeds declared maxval"):
        load_pgm(path)
    path.write_bytes(header + raster.replace(b"\xff", b"\x00"))
    assert load_pgm(path).pixels.max() == int(header.split()[-1])


@pytest.mark.parametrize("maxval, width", [(255, 1), (65535, 2)])
def test_pgm_p5_raster_one_byte_short_is_truncated(tmp_path, maxval, width):
    path = tmp_path / "short.pgm"
    header = b"P5\n3 2\n%d\n" % maxval
    path.write_bytes(header + bytes(6 * width))
    assert load_pgm(path).pixels.shape == (2, 3)
    path.write_bytes(header + bytes(6 * width - 1))
    with pytest.raises(ValueError, match="truncated"):
        load_pgm(path)


@pytest.mark.parametrize("maxval", [0, 65536])
def test_pgm_rejects_maxval_out_of_range(tmp_path, maxval):
    path = tmp_path / "maxval.pgm"
    path.write_bytes(b"P5\n2 2\n%d\n" % maxval + bytes(8))
    message = rf"^maxval {maxval} out of range \[1, 65535\]$"
    with pytest.raises(ValueError, match=message):
        load_pgm(path)


@pytest.mark.parametrize("header", [b"P5\n300 250\n65535\n", b"P5\n300  250\n65535\n"])
def test_pgm_16bit_raster_after_odd_and_even_headers(tmp_path, header):
    # 19 and 20 bytes: the raster starts at an odd and at an even offset,
    # and bytes past it are ignored
    samples = np.random.default_rng(5).integers(0, 65536, (250, 300))
    path = tmp_path / "offset.pgm"
    path.write_bytes(header + samples.astype(">u2").tobytes() + b"\xff\xff\xff")
    got = load_pgm(path).pixels
    assert got.dtype == np.uint16
    assert np.array_equal(got, samples)


@pytest.mark.parametrize(
    "magic, maxval, dtype",
    [
        (b"P5", 255, np.uint8),
        (b"P5", 256, np.uint16),
        (b"P5", 65535, np.uint16),
        (b"P2", 1, np.uint8),
        (b"P2", 255, np.uint8),
        (b"P2", 65535, np.uint16),
    ],
)
def test_pgm_samples_keep_the_file_integer_width(tmp_path, magic, maxval, dtype):
    samples = np.random.default_rng(maxval).integers(0, maxval + 1, (9, 13))
    samples[0, :2] = 0, maxval
    path = tmp_path / "width.pgm"
    write_pgm(samples, path, maxval=maxval, binary=magic == b"P5")
    got = load_pgm(path).pixels
    assert got.dtype == dtype and got.dtype.isnative
    assert np.array_equal(got, samples)
    assert got.flags.writeable  # an array of its own, not a view of the file
    got[0, 0] = 1
    assert load_pgm(path).pixels[0, 0] == 0


@pytest.mark.parametrize(
    "maxval, sample", [(255, b"300"), (255, b"256"), (1, b"2"), (65535, b"65541")]
)
def test_pgm_p2_sample_above_maxval_is_refused_before_it_can_wrap(
    tmp_path, maxval, sample
):
    # 300 would wrap to 44 in 8 bits and 65541 to 5 in 16
    path = tmp_path / "over.pgm"
    path.write_bytes(b"P2\n2 2\n%d\n0 1 1 " % maxval + sample + b"\n")
    with pytest.raises(ValueError, match="exceeds declared maxval"):
        load_pgm(path)


@pytest.mark.parametrize("polarity", list(Polarity))
@pytest.mark.parametrize("maxval", [255, 65535])
def test_a_loaded_image_encodes_as_its_float64_copy(tmp_path, polarity, maxval):
    figure = generate_figure([3, 1], 96)
    path = tmp_path / "figure.pgm"
    write_pgm(figure.pixels / figure.hi * maxval, path, maxval=maxval)
    loaded = load_pgm(path)
    copy = GrayImage(pixels=loaded.pixels.astype(np.float64))
    assert loaded.pixels.dtype.kind == "u"
    assert (loaded.lo, loaded.hi) == (copy.lo, copy.hi)
    seq = halton(4097)
    stages = []
    for img in (loaded, copy):
        nimg = normalize(img, polarity)
        field = make_density_field(nimg)
        code = encode(field, seq)
        stages.append(
            (nimg.pixels, nimg.foreground_mass, field.f, field.row_cdf, code.points)
        )
    for got, want in zip(*stages):  # bit for bit, signed zeros too
        bits = [np.asarray(x, dtype=np.float64).view(np.int64) for x in (got, want)]
        assert np.array_equal(*bits)


def pgm_reference(pixels, maxval: int, binary: bool) -> bytes:
    """The PGM bytes of one pass: round the whole canvas, cast it, write it."""
    samples = np.rint(np.asarray(pixels, dtype=np.float64))
    samples = samples.astype(">u2" if maxval > 255 else "u1")
    height, width = samples.shape
    if binary:
        body = samples.tobytes()
    else:
        body = "".join(" ".join(map(str, row)) + "\n" for row in samples.tolist())
        body = body.encode("ascii")
    magic = "P5" if binary else "P2"
    return f"{magic}\n{width} {height}\n{maxval}\n".encode("ascii") + body


@pytest.mark.parametrize("cells", [7, 40, None])  # None: the module's own
@pytest.mark.parametrize("maxval", [1, 255, 256, 65535])
def test_write_pgm_blocks_write_the_one_pass_bytes(
    tmp_path, monkeypatch, maxval, cells
):
    if cells is not None:
        monkeypatch.setattr(image_io_module, "_WRITE_BLOCK_CELLS", cells)
    rng = np.random.default_rng([maxval, cells or 0])
    # halves round to even; the ends round into range from just outside it
    canvas = rng.integers(0, 2 * maxval + 1, (300, 260)) / 2.0
    canvas[0, :4] = -0.49, -0.0, maxval + 0.49, maxval
    integers = rng.integers(0, maxval + 1, (37, 11))
    inputs = [
        canvas,
        canvas.T,
        canvas[::-3, 1::2],
        np.asfortranarray(canvas[:70]),
        canvas[:1, :1],
        integers,
        integers.astype(np.uint16),
        integers.T.astype(np.float32),
    ]
    if maxval >= 255:
        inputs.append(integers.astype(np.uint8))
    path = tmp_path / "block.pgm"
    for pixels in inputs:
        for binary in (True, False):
            write_pgm(pixels, path, maxval=maxval, binary=binary)
            assert path.read_bytes() == pgm_reference(pixels, maxval, binary)


@pytest.mark.parametrize("bad", [np.nan, -0.51, 65535.5, np.inf])
def test_write_pgm_refuses_a_bad_sample_in_its_last_block(tmp_path, bad):
    canvas = np.random.default_rng(6).uniform(0.0, 65535.0, (600, 256))
    canvas[-1, -1] = bad  # 256 rows a block: the third block's last sample
    assert len(range(0, 600, image_io_module._WRITE_BLOCK_CELLS // 256)) > 2
    path = tmp_path / "late.pgm"
    with warnings.catch_warnings(), pytest.raises(ValueError, match="out of range"):
        warnings.simplefilter("error")
        write_pgm(canvas, path, maxval=65535)
    assert not path.exists()


@pytest.mark.parametrize(
    "pixels, maxval, message",
    [
        (np.zeros(4), 255, "^PGM output requires a 2-D array$"),
        (np.zeros((2, 2, 1)), 255, "^PGM output requires a 2-D array$"),
        (np.zeros((2, 2)), 0, r"^maxval 0 out of range \[1, 65535\]$"),
        (np.zeros((2, 2)), 65536, r"^maxval 65536 out of range \[1, 65535\]$"),
        (np.array([[0.0, 1.0], [2.0, -1.0]]), 255, "^sample values out of range"),
        (np.array([[0.0, 256.0], [2.0, 1.0]]), 255, "^sample values out of range"),
        *(
            (np.array([[0.0, bad], [2.0, 1.0]]), maxval, "^sample values out of range")
            for bad in (np.nan, np.inf, -np.inf, 1e300)
            for maxval in (255, 65535)
        ),
        (np.zeros((0, 4)), 255, "^PGM output requires at least one sample$"),
        (np.zeros((4, 0)), 255, "^PGM output requires at least one sample$"),
    ],
)
def test_write_pgm_refuses_what_it_cannot_write(tmp_path, pixels, maxval, message):
    # refused by the range check, not warned about by a cast
    path = tmp_path / "out.pgm"
    with warnings.catch_warnings(), pytest.raises(ValueError, match=message):
        warnings.simplefilter("error")
        write_pgm(pixels, path, maxval=maxval)
    assert not path.exists()


def test_write_pgm_writes_any_memory_layout_in_row_order(tmp_path):
    samples = np.arange(35.0).reshape(5, 7) * 1000.0
    for view in (samples.T, samples[::-2, 1::2], np.asfortranarray(samples)):
        for maxval, binary in ((65535, True), (65535, False), (40000, True)):
            path = tmp_path / "view.pgm"
            write_pgm(view, path, maxval=maxval, binary=binary)
            assert np.array_equal(load_pgm(path).pixels, view)


def _next_token(data: bytes, i: int) -> tuple[bytes, int]:
    """The byte-at-a-time header tokenizer load_pgm once used, as an oracle.

    Skips whitespace and '#' comments, which run to end of line. Returns
    the next token and the offset one past its final byte.
    """
    n = len(data)
    while i < n:
        ch = data[i]
        if ch in b" \t\n\r\x0b\x0c":
            i += 1
        elif ch == 0x23:  # '#'
            while i < n and data[i] not in (0x0A, 0x0D):
                i += 1
        else:
            break
    start = i
    while i < n and data[i] not in b" \t\n\r\x0b\x0c" and data[i] != 0x23:
        i += 1
    return data[start:i], i


def _oracle_header(data: bytes):
    """(magic, width, height, maxval, offset past maxval), or None if invalid."""
    tokens, i = [], 0
    for _ in range(4):
        token, i = _next_token(data, i)
        tokens.append(token)
    magic, *numbers = tokens
    try:
        width, height, maxval = (int(t) for t in numbers)
    except ValueError:
        return None
    if magic not in (b"P2", b"P5") or width < 2 or height < 2:
        return None
    if not 1 <= maxval <= 65535:
        return None
    return magic, width, height, maxval, i


_RUN = st.lists(
    st.sampled_from([bytes([b]) for b in b" \t\n\r\x0b\x0c#P25x0123456789+-_"]),
    max_size=4,
).map(b"".join)
# mostly whitespace and comments (a lone '#' comments out what follows)
_SPACE = st.lists(
    st.sampled_from([*(bytes([b]) for b in b" \t\n\r\x0b\x0c#"), b"#x\n", b"#P5 2\r"]),
    min_size=1,
    max_size=3,
).map(b"".join)


def _mostly(common, rare=_RUN):
    """``common`` about nine times in ten, otherwise ``rare``."""
    pick = st.tuples(st.integers(0, 9), common, rare)
    return pick.map(lambda t: t[2] if t[0] == 9 else t[1])


# magic, width, height and maxval between separators, each drawn mostly
# from plausible values and otherwise from the same alphabet at random
_HEADER = st.tuples(
    _mostly(st.just(b""), _SPACE),
    _mostly(st.sampled_from([b"P2", b"P5"])),
    _mostly(_SPACE),
    _mostly(st.sampled_from([b"2", b"3", b"017"])),  # width
    _mostly(_SPACE),
    _mostly(st.sampled_from([b"2", b"5", b"+3"])),  # height
    _mostly(_SPACE),
    _mostly(st.sampled_from([b"1", b"255", b"256"])),  # maxval
    _mostly(_SPACE),
).map(b"".join)


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(header=_HEADER)
def test_pgm_header_reads_as_the_byte_tokenizer_does(tmp_path, header):
    path = tmp_path / "header.pgm"
    parsed = _oracle_header(header)
    if parsed is None:
        # past the header comes one run of NUL bytes, which is no number
        data = header + b"\n" + bytes(64)
        assert _oracle_header(data) is None
        path.write_bytes(data)
        with pytest.raises(ValueError):
            load_pgm(path)
        return
    magic, width, height, maxval, i = parsed
    assume(width * height <= 10**5)
    samples = np.arange(width * height).reshape(height, width) % (maxval + 1)
    if magic == b"P5":
        # the byte after maxval, whatever it is, separates header and raster
        dtype = ">u2" if maxval > 255 else "u1"
        data = header[: i + 1].ljust(i + 1, b"\n") + samples.astype(dtype).tobytes()
    else:
        data = header[:i] + b"\n" + " ".join(map(str, samples.flat)).encode()
    path.write_bytes(data)
    assert np.array_equal(load_pgm(path).pixels, samples)


@pytest.mark.parametrize(
    "data", [b"P5 " + b"#" * 10**6 + b"\nx", b"P5" + b" " * 10**6 + b"x"]
)
def test_pgm_hostile_header_is_refused_in_linear_time(tmp_path, data):
    path = tmp_path / "hostile.pgm"
    path.write_bytes(data)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^malformed PGM header$"):
        load_pgm(path)
    assert time.perf_counter() - start < 1.0


def test_load_image_sniffs_format(tmp_path):
    path = tmp_path / "noext"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4]))
    img = load_image(path)
    assert np.array_equal(img.pixels, [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        load_image(tmp_path / "missing.pgm")


def test_load_png_matches_independent_decoder(tmp_path):
    PIL = pytest.importorskip("PIL.Image")
    rng = np.random.default_rng(7)
    samples = rng.integers(0, 256, size=(256, 256), dtype=np.uint8)
    path = tmp_path / "gray.png"
    PIL.fromarray(samples, mode="L").save(path)
    img = load_image(path)
    assert img.pixels.shape == (256, 256)
    assert img.pixels.size == 65536
    # pixel-by-pixel agreement with the reference decode
    assert np.array_equal(img.pixels, samples.astype(float))


def test_normalize_midpoint_and_endpoints():
    img = GrayImage(pixels=np.array([[10.0, 110.0], [210.0, 60.0]]))
    nimg = normalize(img, Polarity.LIGHT_ON_DARK)
    assert nimg.pixels[0, 1] == 0.5
    assert nimg.pixels[0, 0] == 0.0
    assert nimg.pixels[1, 0] == 1.0
    assert nimg.foreground_mass == pytest.approx(nimg.pixels.sum())


def test_normalize_polarity_complement():
    rng = np.random.default_rng(3)
    img = GrayImage(pixels=rng.uniform(5.0, 200.0, (8, 9)))
    light = normalize(img, Polarity.LIGHT_ON_DARK)
    dark = normalize(img, Polarity.DARK_ON_LIGHT)
    assert np.allclose(dark.pixels, 1.0 - light.pixels, atol=1e-15)


def test_normalize_and_field_are_the_plain_formulas_and_leave_inputs_alone():
    h = np.random.default_rng(8).uniform(3.0, 250.0, (31, 17))
    img = GrayImage(pixels=h.copy())
    lo, hi = h.min(), h.max()
    light = normalize(img, Polarity.LIGHT_ON_DARK)
    dark = normalize(img, Polarity.DARK_ON_LIGHT)
    assert np.array_equal(light.pixels, (h - lo) / (hi - lo))
    assert np.array_equal(dark.pixels, (hi - h) / (hi - lo))
    for nimg in (light, dark):
        g = nimg.pixels.copy()
        field = make_density_field(nimg, 1e-4)
        assert np.array_equal(field.f, (g + field.c) / (g + field.c).sum())
        assert np.array_equal(nimg.pixels, g)
    assert np.array_equal(img.pixels, h)


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    shape=st.tuples(st.integers(2, 64), st.integers(2, 64)),
    dtype=st.sampled_from([np.uint8, np.uint16, np.float64]),
    polarity=st.sampled_from(list(Polarity)),
    lam=st.sampled_from([1e-4, 1e-2, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_density_field_is_the_two_stage_chain_and_the_stages_copy(
    shape, dtype, polarity, lam, seed
):
    rng = np.random.default_rng(seed)
    top = 255.0 if dtype is np.uint8 else 65535.0
    pixels = rng.uniform(0.0, top, shape)
    pixels.flat[:2] = (0.0, top)  # never flat
    if dtype is not np.float64:
        pixels = np.rint(pixels).astype(dtype)
    img = GrayImage(pixels=pixels.copy())
    assert img.pixels.dtype == dtype
    # the stages return new arrays and leave their inputs' alone
    nimg = normalize(img, polarity)
    assert not np.shares_memory(nimg.pixels, img.pixels)
    assert np.array_equal(img.pixels, pixels)
    normalized = nimg.pixels.copy()
    want = make_density_field(nimg, lam)
    for array in (want.f, want.row_cdf):
        assert not np.shares_memory(array, nimg.pixels)
    assert np.array_equal(bits(nimg.pixels), bits(normalized))
    # the owned chain gives the same field, bit for bit
    got = density_field(img, polarity, lam)
    assert np.array_equal(img.pixels, pixels)
    for array in (got.f, got.row_cdf):
        assert not np.shares_memory(array, img.pixels)
    assert np.array_equal(bits(got.f), bits(want.f))
    assert np.array_equal(bits(got.row_cdf), bits(want.row_cdf))
    for name in ("c", "foreground_mass", "lam"):
        assert bits(getattr(got, name)) == bits(getattr(want, name))
    assert got.polarity is want.polarity is polarity


def test_normalize_rejects_flat_image():
    img = GrayImage(pixels=np.full((4, 4), 7.0))
    with pytest.raises(ValueError, match="degenerate contrast"):
        normalize(img, Polarity.LIGHT_ON_DARK)


def test_normalize_rejects_an_unknown_polarity():
    img = GrayImage(pixels=np.array([[0.0, 1.0], [2.0, 3.0]]))
    with pytest.raises(ValueError, match="^unknown polarity 'light-on-dark'$"):
        normalize(img, "light-on-dark")  # the flag's text, not the Polarity


def test_normalize_idempotent():
    rng = np.random.default_rng(4)
    img = GrayImage(pixels=rng.uniform(0.0, 255.0, (6, 6)))
    once = normalize(img, Polarity.LIGHT_ON_DARK)
    twice = normalize(GrayImage(pixels=once.pixels), Polarity.LIGHT_ON_DARK)
    assert np.allclose(twice.pixels, once.pixels, atol=1e-12)


@settings(max_examples=50, derandomize=True)
@given(
    a=st.floats(min_value=0.01, max_value=100.0),
    b=st.floats(min_value=0.0, max_value=1000.0),
)
def test_normalize_affine_relighting_invariance(a, b):
    rng = np.random.default_rng(5)
    base = rng.uniform(0.0, 200.0, (5, 5))
    original = normalize(GrayImage(pixels=base), Polarity.LIGHT_ON_DARK)
    relit = normalize(GrayImage(pixels=a * base + b), Polarity.LIGHT_ON_DARK)
    assert np.allclose(relit.pixels, original.pixels, atol=1e-12)


def test_density_field_constant_formula():
    g = np.zeros((256, 256))
    g[:10, :10] = 1.0  # any layout; only the mass matters for c
    mass = 100.0
    g = g * (mass / g.sum())
    nimg = NormalizedImage(
        pixels=g, foreground_mass=mass, polarity=Polarity.LIGHT_ON_DARK
    )
    field = make_density_field(nimg, 1e-4)
    assert field.c == pytest.approx(1e-4 * 100.0 / 65536, rel=1e-12)


def test_density_field_uniform_input():
    g = np.full((6, 8), 0.37)
    nimg = NormalizedImage(
        pixels=g, foreground_mass=float(g.sum()), polarity=Polarity.LIGHT_ON_DARK
    )
    field = make_density_field(nimg, 1e-4)
    assert np.allclose(field.f, 1.0 / 48, rtol=1e-14)


def test_density_field_invariants():
    rng = np.random.default_rng(6)
    for _ in range(5):
        g = rng.uniform(0.0, 1.0, (17, 23))
        g -= g.min()
        g /= g.max()
        nimg = NormalizedImage(
            pixels=g, foreground_mass=float(g.sum()), polarity=Polarity.LIGHT_ON_DARK
        )
        field = make_density_field(nimg, 1e-4)
        assert abs(field.f.sum() - 1.0) <= 1e-12
        assert np.all(field.f > 0.0)
        assert np.all(np.diff(field.row_cdf) > 0.0)
        assert abs(field.row_cdf[-1] - 1.0) <= 1e-12
        # positivity floor from the background lift
        floor = field.c / (nimg.foreground_mass + field.c * g.size)
        assert field.f.min() >= floor * (1.0 - 1e-12)


def test_density_field_rejects_a_hand_built_zero_mass_image():
    # normalize never gives one: its maximum is exactly 1
    nimg = NormalizedImage(
        pixels=np.zeros((3, 3)), foreground_mass=0.0, polarity=Polarity.LIGHT_ON_DARK
    )
    with pytest.raises(ValueError, match="^foreground mass must be > 0$"):
        make_density_field(nimg, 1e-4)


def test_density_field_rejects_bad_lambda():
    g = np.ones((4, 4))
    nimg = NormalizedImage(
        pixels=g, foreground_mass=16.0, polarity=Polarity.LIGHT_ON_DARK
    )
    with pytest.raises(ValueError):
        make_density_field(nimg, 0.0)
    with pytest.raises(ValueError):
        make_density_field(nimg, -1.0)
    for lam in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            make_density_field(nimg, lam)
    with pytest.raises(ValueError, match="too large"):
        make_density_field(nimg, 1e308)
