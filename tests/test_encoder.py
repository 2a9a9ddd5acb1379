"""Tests for code-length selection, CDF inversion, and the array encoder."""

import bisect
import contextlib
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densitycode import (
    CorpusSpec,
    DensityCode,
    EncodeParams,
    GrayImage,
    NormalizedImage,
    Polarity,
    code_length,
    encode,
    generate_corpus,
    generate_figure,
    halton,
    invert,
    load_image,
    make_density_field,
    normalize,
    read_code_csv,
    write_code_csv,
    write_pgm,
)
from densitycode import encoder


LIGHT, DARK = Polarity.LIGHT_ON_DARK, Polarity.DARK_ON_LIGHT


def uniform_field(sy, sx, lam=1e-4, value=1.0):
    g = np.full((sy, sx), value)
    nimg = NormalizedImage(
        pixels=g, foreground_mass=float(g.sum()), polarity=Polarity.LIGHT_ON_DARK
    )
    return make_density_field(nimg, lam)


def figure_field(seed, size, lam=1e-4):
    img = generate_figure(seed, size)
    return make_density_field(normalize(img, Polarity.LIGHT_ON_DARK), lam)


def random_field(shape, seed, dark=0.5, polarity=LIGHT, lam=1e-3):
    """A share ``dark`` of the pixels at 0, the rest uniform on [0, 1), one
    at 2 so none is flat."""
    rng = np.random.default_rng(seed)
    pixels = np.where(rng.random(shape) < dark, 0.0, rng.random(shape))
    pixels.flat[rng.integers(pixels.size)] = 2.0
    return make_density_field(normalize(GrayImage(pixels), polarity), lam)


# random_field's inputs for the prefix-law properties
IMAGES = dict(
    lam=st.floats(1e-8, 1.0),
    polarity=st.sampled_from(list(Polarity)),
    dark=st.floats(0.0, 0.999),
    seed=st.integers(0, 2**32 - 1),
)


def check_uniform_closed_form(shape):
    """The closed form u * S per axis, to 1e-9 of that axis's size."""
    sy, sx = shape
    seq = halton(4097)
    code = encode(uniform_field(sy, sx), seq)
    assert code.m == 4097
    scale = np.array([sx, sy], dtype=float)
    assert np.max(np.abs(code.points - seq.points * scale) / scale) <= 1e-9


def check_prefix_law(shape, lam, polarity, dark, seed, long, short):
    """A short code is the long one's prefix; every point is inside the image."""
    field = random_field(shape, seed, dark, polarity, lam)
    long_code = encode(field, halton(long, 2))
    short_code = encode(field, halton(short, 2))
    assert np.array_equal(long_code.points[:short], short_code.points)
    sy, sx = shape
    assert np.all((long_code.points > 0.0) & (long_code.points < (sx, sy)))


class TestCodeLength:
    def test_alpha_rule(self):
        assert code_length(5000.0, 0.25, 2048) == 1250

    def test_fixed_length_mode(self):
        assert code_length(123.0, None, 1025) == 1025

    def test_alpha_rounding_half_away(self):
        assert code_length(8923.0, 0.5, 8000) == 4462

    def test_sequence_cap(self):
        assert code_length(5000.0, 0.5, 100) == 100
        assert code_length(5000.0, 1e308, 100) == 100  # alpha * mass is inf

    def test_empty_code_rejected(self):
        with pytest.raises(ValueError, match="empty code"):
            code_length(3.0, 0.01, 1000)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            code_length(0.0, 0.25, 100)
        with pytest.raises(ValueError):
            code_length(10.0, -0.5, 100)
        with pytest.raises(ValueError):
            code_length(10.0, 0.25, 0)
        for alpha in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="alpha must be finite"):
                code_length(100.0, alpha, 1000)


class TestInvertPoint:
    def test_uniform_2x2_center(self):
        field = uniform_field(2, 2)
        out = invert(field, np.array([[0.5, 0.5]]))
        assert out.shape == (1, 2)
        assert out.tolist() == [[1.0, 1.0]]

    def test_uniform_closed_form(self):
        field = uniform_field(16, 16)
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = rng.uniform(0.01, 0.99, (1, 2))
            (x, y), = invert(field, u)
            assert x == pytest.approx(u[0, 0] * 16, abs=1e-9)
            assert y == pytest.approx(u[0, 1] * 16, abs=1e-9)

    def test_uniform_closed_form_rectangular(self):
        field = uniform_field(8, 32)
        (x, y), = invert(field, np.array([[0.3, 0.7]]))
        assert x == pytest.approx(0.3 * 32, abs=1e-9)
        assert y == pytest.approx(0.7 * 8, abs=1e-9)

    def test_delta_density_concentrates(self):
        g = np.zeros((5, 5))
        g[0, 0] = 1.0
        nimg = NormalizedImage(
            pixels=g, foreground_mass=1.0, polarity=Polarity.LIGHT_ON_DARK
        )
        field = make_density_field(nimg, 1e-9)
        for u in ((0.2, 0.8), (0.5, 0.5), (0.9, 0.1)):
            (x, y), = invert(field, np.array([u]))
            assert 0.0 <= x <= 1.0
            assert 0.0 <= y <= 1.0

    def test_rejects_point_on_boundary(self):
        field = uniform_field(4, 4)
        for u in ((0.0, 0.5), (0.5, 1.0)):
            with pytest.raises(ValueError, match=r"strictly inside \(0,1\)\^2"):
                invert(field, np.array([u]))


def exact_invert(field, u):
    """Reference: invert's steps on the stored ``field.f`` in exact arithmetic.

    The row CDF, iy and wy, the row blended from the padded rows iy - 1 and
    iy (the zero row above the first), and its bracket, all as Fractions of
    the stored doubles and of u; each coordinate is rounded once at the end.
    """
    sy, sx = field.f.shape
    cum = [[Fraction(0)] * (sx + 1)]  # padded row r holds pixel row r - 1
    for row in field.f.tolist():
        cum.append([Fraction(0)])
        for value in row:
            cum[-1].append(cum[-1][-1] + Fraction(value))
    total = sum(row[-1] for row in cum)
    row_cdf = [Fraction(0)]
    for row in cum[1:]:
        row_cdf.append(row_cdf[-1] + row[-1] / total)
    out = []
    for ux, uy in u.tolist():
        ux, uy = Fraction(ux), Fraction(uy)
        iy = bisect.bisect_right(row_cdf, uy, 1, sy) - 1
        wy = (uy - row_cdf[iy]) / (row_cdf[iy + 1] - row_cdf[iy])
        above, below = cum[iy], cum[iy + 1]
        blended = [a + wy * (b - a) for a, b in zip(above, below)]
        target = ux * blended[sx]
        lo = bisect.bisect_right(blended, target, 0, sx) - 1
        x = lo + (target - blended[lo]) / (blended[lo + 1] - blended[lo])
        out.append((float(x), float(iy + wy)))
    return np.array(out)


def test_invert_equals_exact_arithmetic_on_random_fields():
    # 40 fields from 2 x 2 to 24 x 24, a quarter of them half background
    # (zero pixels, lifted by lambda): every coordinate within 1e-10 px
    rng = np.random.default_rng(2026)
    u = halton(257).points
    for k in range(40):
        shape = tuple(rng.integers(2, 25, 2).tolist())
        field = random_field(shape, k, dark=0.5 if k % 4 == 0 else 0.0)
        got, want = invert(field, u), exact_invert(field, u)
        assert np.max(np.abs(got - want)) <= 1e-10, (shape, k)


class TestEncode:
    def test_uniform_image_scales_sequence(self):
        field = uniform_field(16, 16)
        seq = halton(64, 2)
        code = encode(field, seq)
        assert np.max(np.abs(code.points - seq.points * 16)) <= 1e-9

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(shape=st.tuples(st.integers(2, 1024), st.integers(2, 1024)))
    @example(shape=(1024, 1024))
    @example(shape=(2, 1024))
    @example(shape=(1024, 2))
    @example(shape=(1000, 7))
    def test_uniform_image_scales_sequence_at_every_size(self, shape):
        check_uniform_closed_form(shape)

    def test_determinism(self):
        field = figure_field(1, 64)
        seq = halton(256, 2)
        a = encode(field, seq, EncodeParams(alpha=0.2))
        b = encode(field, seq, EncodeParams(alpha=0.2))
        assert np.array_equal(a.points, b.points)

    def test_prefix_consistency(self):
        field = figure_field(2, 64)
        long_code = encode(field, halton(1024, 2))
        short_code = encode(field, halton(512, 2))
        assert np.array_equal(long_code.points[:512], short_code.points)

    def test_points_inside_image_rectangle(self):
        field = figure_field(3, 64)
        code = encode(field, halton(512, 2))
        assert np.all(code.points[:, 0] >= 0.0)
        assert np.all(code.points[:, 0] <= 64.0)
        assert np.all(code.points[:, 1] >= 0.0)
        assert np.all(code.points[:, 1] <= 64.0)

    def test_alpha_sets_length(self):
        field = figure_field(4, 64)
        mass = field.foreground_mass
        code = encode(field, halton(4096, 2), EncodeParams(alpha=0.25))
        assert code.m == int(np.floor(0.25 * mass + 0.5))

    def test_sequence_dimension_checked(self):
        with pytest.raises(ValueError, match="only 2-D sequences"):
            halton(16, 3)

    def test_lam_must_match_the_field(self):
        field = figure_field(5, 64, lam=1e-4)
        seq = halton(300, 2)
        with pytest.raises(ValueError, match="EncodeParams.lam 5.0 does not match"):
            encode(field, seq, EncodeParams(lam=5.0))
        same = encode(field, seq, EncodeParams(lam=1e-4))
        assert same.lam == 1e-4
        assert np.array_equal(same.points, encode(field, seq).points)

    def test_two_blob_mass_fractions(self):
        img = np.zeros((64, 64))
        img[8:25, 8:25] = 1.0  # quarter of the mass
        img[40:57, 40:57] = 3.0  # three quarters
        nimg = normalize(GrayImage(pixels=img), Polarity.LIGHT_ON_DARK)
        field = make_density_field(nimg, 1e-4)
        pts = encode(field, halton(4096, 2)).points
        in_box1 = np.mean(
            (pts[:, 0] >= 8) & (pts[:, 0] <= 25) & (pts[:, 1] >= 8) & (pts[:, 1] <= 25)
        )
        in_box2 = np.mean(
            (pts[:, 0] >= 40)
            & (pts[:, 0] <= 57)
            & (pts[:, 1] >= 40)
            & (pts[:, 1] <= 57)
        )
        assert in_box1 == pytest.approx(0.25, abs=0.03)
        assert in_box2 == pytest.approx(0.75, abs=0.03)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(shape=st.tuples(st.integers(2, 64), st.integers(2, 64)), **IMAGES)
    def test_prefix_law_and_open_rectangle_at_every_size(
        self, shape, lam, polarity, dark, seed
    ):
        check_prefix_law(shape, lam, polarity, dark, seed, 600, 257)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(shape=st.tuples(st.integers(2, 1024), st.integers(2, 1024)), **IMAGES)
    @example(shape=(1024, 1024), lam=1e-4, polarity=LIGHT, dark=0.9, seed=0)
    @example(shape=(2, 1024), lam=1e-8, polarity=DARK, dark=0.0, seed=1)
    @example(shape=(1024, 2), lam=1.0, polarity=LIGHT, dark=0.999, seed=2)
    def test_prefix_law_and_open_rectangle_up_to_1024(
        self, shape, lam, polarity, dark, seed
    ):
        # the law above on every image size the tools are tested at, with
        # codes of up to 4097 points
        check_prefix_law(shape, lam, polarity, dark, seed, 4097, 1025)

    def test_translation_equivariance(self):
        fig = generate_figure(9, 96).pixels
        dx, dy = 11, 5
        canvas_a = np.zeros((128, 128))
        canvas_b = np.zeros((128, 128))
        canvas_a[:96, :96] = fig
        canvas_b[dy : 96 + dy, dx : 96 + dx] = fig
        seq = halton(1024, 2)
        codes = []
        for canvas in (canvas_a, canvas_b):
            nimg = normalize(GrayImage(pixels=canvas), Polarity.LIGHT_ON_DARK)
            codes.append(encode(make_density_field(nimg, 1e-4), seq).points)
        displacement = np.median(codes[1] - codes[0], axis=0)
        assert abs(displacement[0] - dx) <= 0.5
        assert abs(displacement[1] - dy) <= 0.5

    def test_column_duplication_stretch(self):
        img = generate_figure(10, 64)
        doubled = GrayImage(pixels=np.repeat(img.pixels, 2, axis=1))
        seq = halton(1024, 2)
        code_a = encode(
            make_density_field(normalize(img, Polarity.LIGHT_ON_DARK)), seq
        ).points
        code_b = encode(
            make_density_field(normalize(doubled, Polarity.LIGHT_ON_DARK)), seq
        ).points
        assert np.median(np.abs(code_b[:, 0] - 2.0 * code_a[:, 0])) <= 1.0
        assert np.median(np.abs(code_b[:, 1] - code_a[:, 1])) <= 0.5


def full_table_invert(field, u):
    """Reference: invert with one zero-padded cumulative table of the image."""
    u = np.asarray(u, dtype=np.float64)
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


def points_in_every_row(field, per_row, seed):
    """Points whose y falls in each pixel row in turn, at several heights."""
    rng = np.random.default_rng(seed)
    row_cdf = np.concatenate(([0.0], field.row_cdf))
    rows = np.repeat(np.arange(field.f.shape[0]), per_row)
    share = rng.uniform(0.05, 0.95, rows.size)
    uy = row_cdf[rows] + share * (row_cdf[rows + 1] - row_cdf[rows])
    u = np.column_stack((rng.uniform(0.01, 0.99, rows.size), uy))
    return u, rows


@contextlib.contextmanager
def bands_of(cells):
    """Within the block, invert builds its table ``cells`` cells a band."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(encoder, "_BAND_CELLS", cells)
        yield


class TestBandedInvert:
    """``invert`` in bands of rows equals one full-image table, bit for bit."""

    @pytest.mark.parametrize(
        "shape",
        [(37, 5), (13, 29), (64, 3), (5, 2), (101, 64), (1000, 257), (300, 4096)],
    )
    @pytest.mark.parametrize("band", [1, 2, 3, 7, None])
    def test_bands_match_the_full_table(self, shape, band):
        # band None keeps the default: one band for the five small shapes,
        # 2 bands of 508 rows at 1000 x 257 and 10 of 31 rows at 300 x 4096
        sy, sx = shape
        cells = encoder._BAND_CELLS if band is None else band * (sx + 1)
        field = random_field(shape, sy * sx)
        u, rows = points_in_every_row(field, 3, sy + sx)
        # every row is some point's iy: row 0 reads the zero row, each band's
        # first row the last row of the band before, and the last band is
        # partial whenever band does not divide sy
        assert np.array_equal(
            np.searchsorted(field.row_cdf[:-1], u[:, 1], side="right"), rows
        )
        u = np.vstack((u, halton(4097).points))
        with bands_of(cells):
            assert np.array_equal(invert(field, u), full_table_invert(field, u))

    def test_points_of_one_band_only(self):
        # bands of 4 rows: only rows 20-23, the sixth band, hold points
        field = random_field((40, 16), 3)
        u, rows = points_in_every_row(field, 5, 4)
        u = u[(rows >= 20) & (rows < 24)]
        with bands_of(4 * 17):
            assert np.array_equal(invert(field, u), full_table_invert(field, u))
            assert invert(field, u[:0]).shape == (0, 2)

    # TestEncode's Hypothesis properties once more, in small bands: 2**14
    # cells are 15 rows of a 1024-pixel row, 2**7 one row of a 64-pixel one
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(shape=st.tuples(st.integers(2, 1024), st.integers(2, 1024)))
    @example(shape=(1024, 1024))
    def test_uniform_closed_form_in_small_bands(self, shape):
        with bands_of(2**14):
            check_uniform_closed_form(shape)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(shape=st.tuples(st.integers(2, 64), st.integers(2, 64)), **IMAGES)
    def test_prefix_law_in_bands_of_one_row(self, shape, lam, polarity, dark, seed):
        with bands_of(2**7):
            check_prefix_law(shape, lam, polarity, dark, seed, 600, 257)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(shape=st.tuples(st.integers(2, 1024), st.integers(2, 1024)), **IMAGES)
    @example(shape=(1024, 1024), lam=1e-4, polarity=LIGHT, dark=0.9, seed=0)
    def test_prefix_law_up_to_1024_in_small_bands(
        self, shape, lam, polarity, dark, seed
    ):
        with bands_of(2**14):
            check_prefix_law(shape, lam, polarity, dark, seed, 4097, 1025)

    def test_encode_allocates_a_band_not_a_canvas(self):
        # a full-image table alone was one canvas of doubles
        n = 1024
        field = figure_field([0, 0], n)
        seq = halton(16385)
        tracemalloc.start()
        try:
            encode(field, seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.3 * 8 * n * n


class TestCodeCsv:
    def test_round_trip_exact(self, tmp_path):
        field = figure_field(5, 64)
        code = encode(field, halton(128, 2), EncodeParams(alpha=0.1))
        path = tmp_path / "code.csv"
        write_code_csv(code, path)
        loaded = read_code_csv(path)
        assert np.array_equal(loaded.points, code.points)
        assert loaded.m == code.m
        assert loaded.sx == code.sx and loaded.sy == code.sy
        assert loaded.lam == code.lam
        assert loaded.alpha == code.alpha
        assert loaded.polarity == "light-on-dark"
        assert loaded.seq_name == "halton"

    def test_header_contents(self, tmp_path):
        field = uniform_field(8, 4)
        code = encode(field, halton(16, 2))
        path = tmp_path / "code.csv"
        write_code_csv(code, path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("# density-code v1")
        for key in ("n=2", "m=16", "Sx=4", "Sy=8", "alpha=none", "seq=halton"):
            assert key in header

    def test_reader_ignores_unknown_keys(self, tmp_path):
        path = tmp_path / "code.csv"
        path.write_text(
            "# density-code v1, n=2, m=2, Sx=4, Sy=4, lambda=0.0001, "
            "alpha=none, polarity=none, seq=halton, future_key=whatever\n"
            "1.5,2.5\n3.25,0.75\n"
        )
        code = read_code_csv(path)
        assert code.m == 2
        assert code.points[1, 0] == 3.25

    def test_reader_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(ValueError):
            read_code_csv(path)
        path.write_text("# some-other-format v9\n1.0,2.0\n")
        with pytest.raises(ValueError):
            read_code_csv(path)

    def test_reader_checks_point_count(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(
            "# density-code v1, n=2, m=3, Sx=4, Sy=4, lambda=0.0001, "
            "alpha=none, polarity=none, seq=halton\n1,2\n"
        )
        with pytest.raises(ValueError, match="count"):
            read_code_csv(path)

    @pytest.mark.parametrize(
        "row", ["1.5,2.5,3.5", "1.5", "nan,2.5", "1.5,-inf", "1.5,x"]
    )
    def test_reader_rejects_bad_row_with_line_number(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# density-code v1, n=2, m=3, Sx=4, Sy=4, lambda=0.0001, "
            f"alpha=none, polarity=none, seq=halton\n\n1,2\n{row}\n3,1\n"
        )
        with pytest.raises(ValueError, match="line 4: "):
            read_code_csv(path)

    @pytest.mark.parametrize(
        "row, point",
        [
            ("0,2", "(0.0, 2.0)"),
            ("4,2", "(4.0, 2.0)"),
            ("1,-0.5", "(1.0, -0.5)"),
            ("1,4.25", "(1.0, 4.25)"),
        ],
    )
    def test_reader_rejects_point_outside_image(self, tmp_path, row, point):
        path = tmp_path / "outside.csv"
        path.write_text(
            "# density-code v1, n=2, m=3, Sx=4, Sy=4, lambda=0.0001, "
            f"alpha=none, polarity=none, seq=halton\n1,2\n{row}\n3,1\n"
        )
        message = f"line 3: point {point} outside the image (0, 4) x (0, 4)"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_code_csv(path)

    def test_body_matches_per_line_reference(self, tmp_path):
        # whole numbers, 1e-05-scale values, values just under S, the
        # smallest subnormal, and real code points
        code = encode(figure_field(6, 64), halton(300, 2))
        awkward = [
            [1.0, 63.0],
            [1.2345678901234567e-05, 3.0e-05],
            [np.nextafter(64.0, 0.0), np.nextafter(64.0, 0.0)],
            [5e-324, 0.5],
            [10.0, np.nextafter(1.0, 2.0)],
        ]
        points = np.vstack((awkward, code.points))
        path = tmp_path / "code.csv"
        write_code_csv(DensityCode(points, 64, 64, 1e-4, None, None), path)
        header, body = path.read_text(encoding="utf-8").split("\n", 1)
        assert header.startswith("# density-code v1, n=2, m=305,")
        assert body == "".join(f"{x:.17g},{y:.17g}\n" for x, y in points.tolist())
        assert np.array_equal(read_code_csv(path).points, points)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        points=st.lists(
            st.tuples(
                st.floats(0.0, 17.0, exclude_min=True, exclude_max=True),
                st.floats(0.0, 5.0, exclude_min=True, exclude_max=True),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_write_read_round_trip(self, tmp_path_factory, points):
        path = tmp_path_factory.mktemp("round_trip") / "code.csv"
        code = DensityCode(np.array(points), 17, 5, 1e-4, 0.25, "dark-on-light")
        write_code_csv(code, path)
        body = path.read_text(encoding="utf-8").split("\n", 1)[1]
        assert body == "".join(f"{x:.17g},{y:.17g}\n" for x, y in points)
        loaded = read_code_csv(path)
        assert np.array_equal(loaded.points, code.points)
        assert (loaded.alpha, loaded.polarity) == (0.25, "dark-on-light")

    @pytest.mark.parametrize(
        "body, points",
        [
            ("1.5,2.5\r\n3.25,0.75\r\n", [[1.5, 2.5], [3.25, 0.75]]),  # CRLF
            ("1.5,2.5\n   \n\t\n3.25,0.75\n", [[1.5, 2.5], [3.25, 0.75]]),
            ("1.5,2.5\n3.25,0.75", [[1.5, 2.5], [3.25, 0.75]]),  # no final newline
            (" 1.5 ,2.5\n3.25,\t0.75 \n", [[1.5, 2.5], [3.25, 0.75]]),  # padded
            ("1_0,2\n3.25,1e0\n", [[10.0, 2.0], [3.25, 1.0]]),  # as float() reads
        ],
    )
    def test_reader_accepts(self, tmp_path, body, points):
        path = tmp_path / "code.csv"
        path.write_bytes(
            b"# density-code v1, n=2, m=2, Sx=16, Sy=4, lambda=0.0001, "
            b"alpha=none, polarity=none, seq=halton\r\n" + body.encode()
        )
        assert read_code_csv(path).points.tolist() == points

    @pytest.mark.parametrize(
        "rows, message",
        [
            # a long row and a short one: as many fields as two good rows
            (["1,2", "1,2,3", "4", "3,1"], "line 6: expected 2 fields, found 3"),
            (["1,2", "3,1", "2", "5,6,7"], "line 8: expected 2 fields, found 1"),
            (["1,2", "# x, y", "3,1", "1,1"], "line 6: could not convert string"),
            (["1,2", "3,1", " 2 ,inf", "1,1"], "line 8: non-finite coordinate"),
            (["1,2", "3,1", "1,1", "2,4"], "line 9: point (2.0, 4.0) outside"),
            # a row that does not parse is named before an earlier non-finite one
            (["nan,1", "3,1", "1,x", "1,1"], "line 8: could not convert string"),
        ],
    )
    def test_reader_names_bad_row_after_blank_lines(self, tmp_path, rows, message):
        # lines 2 and 3 are empty, line 5 is whitespace, line 7 is empty
        path = tmp_path / "bad.csv"
        path.write_text(
            "# density-code v1, n=2, m=4, Sx=4, Sy=4, lambda=0.0001, "
            "alpha=none, polarity=none, seq=halton\n\n\n"
            f"{rows[0]}\n  \t\n{rows[1]}\n\n{rows[2]}\n{rows[3]}\n"
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}, {message}")):
            read_code_csv(path)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        rows=st.lists(
            st.sampled_from(
                ["1,2", " 3.5 ,\t4", "1_0,2", "1e-3,7", "", "  ", "\t", "1,2,3",
                 "4", "x,1", "# a, b", "nan,1", "1,inf", "0,5", "5,11", "10,5",
                 "3,10", "-0,1"]
            ),
            max_size=12,
        ),
        newline=st.sampled_from(["\n", "\r\n"]),
    )
    def test_reader_agrees_with_per_line_reference(
        self, tmp_path_factory, rows, newline
    ):
        path = tmp_path_factory.mktemp("reader") / "code.csv"
        header = "# density-code v1, n=2, Sx=10, Sy=10, seq=halton"
        text = newline.join([header, *rows])
        path.write_bytes(text.encode())
        want = reference_read_points(path, text, 10, 10)
        if isinstance(want, str):
            with pytest.raises(ValueError) as excinfo:
                read_code_csv(path)
            assert str(excinfo.value) == want
        else:
            assert np.array_equal(read_code_csv(path).points, want)

    def test_reader_requires_image_size(self, tmp_path):
        path = tmp_path / "nosize.csv"
        path.write_text("# density-code v1, n=2, m=1, Sx=4, seq=halton\n1,2\n")
        with pytest.raises(ValueError, match="header lacks the image size"):
            read_code_csv(path)

    @pytest.mark.parametrize(
        "key, value, shown, kind",
        [
            ("n", "two", "'two'", "an integer"),
            ("m", "x", "'x'", "an integer"),
            ("m", "1.0", "'1.0'", "an integer"),
            ("Sx", "4.5", "'4.5'", "an integer"),
            ("Sy", "", "''", "an integer"),
            # past int()'s digit limit: named, and shown cut short
            ("Sx", "9" * 5000, f"'{'9' * 20}...'", "an integer"),
            ("lambda", "1e-4x", "'1e-4x'", "a number"),
            ("alpha", "half", "'half'", "a number"),
        ],
    )
    def test_reader_names_a_header_value_that_does_not_parse(
        self, tmp_path, key, value, shown, kind
    ):
        fields = {"n": "2", "m": "1", "Sx": "4", "Sy": "4", "lambda": "0.0001",
                  "alpha": "0.5", key: value}
        header = ", ".join(f"{k}={v}" for k, v in fields.items())
        path = tmp_path / "a.csv"
        path.write_text(f"# density-code v1, {header}, seq=halton\n1,2\n")
        message = f"{path}: header {key}={shown} is not {kind}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_code_csv(path)


HEADER_64 = (
    "# density-code v1, n=2, m=3, Sx=64, Sy=64, lambda=0.0001, "
    "alpha=none, polarity=none, seq=halton\n"
)


@pytest.mark.parametrize(
    "row, reason",
    [
        ([np.nan, 1.0], "non-finite coordinate"),
        ([1.0, -np.inf], "non-finite coordinate"),
        ([70.0, 1.0], "point (70.0, 1.0) outside the image (0, 64) x (0, 64)"),
        ([0.0, 1.0], "point (0.0, 1.0) outside the image (0, 64) x (0, 64)"),
        ([1.0, 64.0], "point (1.0, 64.0) outside the image (0, 64) x (0, 64)"),
    ],
)
def test_writer_refuses_what_the_reader_refuses(tmp_path, row, reason):
    points = np.array([[1.0, 2.0], row, [3.0, 4.0]])
    path = tmp_path / "code.csv"
    code = DensityCode(points, 64, 64, 1e-4, None, None)
    with pytest.raises(ValueError, match=re.escape(f"{path}: points[1]: {reason}")):
        write_code_csv(code, path)
    assert not path.exists()
    # the same rows written by hand: the reader names the same point
    path.write_text(HEADER_64 + "".join(f"{x!r},{y!r}\n" for x, y in points.tolist()))
    with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: {reason}")):
        read_code_csv(path)


def assert_body_is_reference(tmp_path, values):
    """The code file's rows are ``f"{x:.17g},{y:.17g}"`` one by one.

    Rows entirely within [1e-4, 1e9) are also given to the array formatter
    itself, which the writer bypasses for a body with one value outside.
    Rows are compared as lists, so that a failure names its first row.
    """
    points = np.asarray(values, dtype=np.float64).reshape(-1, 2)
    want = [f"{x:.17g},{y:.17g}" for x, y in points.tolist()]
    path = tmp_path / "code.csv"
    size = 2 * 10**9
    write_code_csv(DensityCode(points, size, size, 1e-4, None, None), path)
    body = path.read_bytes().decode().split("\n", 1)[1]
    assert body.split("\n") == [*want, ""]
    inside = ((points >= 1e-4) & (points < 1e9)).all(axis=1)
    if inside.any():
        body = encoder._format_block(points[inside].ravel()).decode()
        assert body.split("\n") == [*np.array(want)[inside].tolist(), ""]


class TestCodeFormatter:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        rows=st.lists(
            st.tuples(*[st.floats(-6.0, 9.0, exclude_max=True)] * 2),
            min_size=1,
            max_size=40,
        )
    )
    def test_body_matches_reference_over_magnitudes(self, tmp_path_factory, rows):
        # log-uniform magnitudes in [1e-6, 1e9): below 1e-4 the writer
        # formats the whole body with the format operator, above it with
        # array arithmetic
        values = 10.0 ** np.array(rows)
        assert_body_is_reference(tmp_path_factory.mktemp("formatter"), values)

    @pytest.mark.parametrize("e", range(-4, 9))
    def test_powers_of_ten_and_their_neighbours(self, tmp_path, e):
        power = float(f"1e{e}")
        below, above = np.nextafter(power, 0.0), np.nextafter(power, np.inf)
        assert_body_is_reference(tmp_path, [[below, power], [above, power]])

    def test_decade_bounds_are_the_least_doubles_at_each_power(self):
        for e, bound in zip(range(-4, 10), encoder._DECADES.tolist()):
            assert Fraction(bound) >= Fraction(10) ** e
            assert Fraction(np.nextafter(bound, 0.0)) < Fraction(10) ** e

    @pytest.mark.parametrize("e", range(-4, 10))
    def test_no_double_rounds_up_into_the_next_decade(self, tmp_path, e):
        # the largest double below 10**e lies more than half a unit of the
        # 17th digit below it, so %.17g never prints it as 10**e
        power = Fraction(10) ** e
        below = np.nextafter(encoder._DECADES[e + 4], 0.0)
        assert power - Fraction(below) > power / 10**16 / 2
        assert_body_is_reference(tmp_path, [[below, below]])

    def test_ties_round_half_to_even(self, tmp_path):
        # a / 2**18 for odd a lies in [0.1, 1) and has 18 significant
        # digits ending in 5: each is a tie at 17 digits, as
        # 131073 / 2**18 = 0.500003814697265625 -> 0.50000381469726562
        ties = np.arange(26215, 262144, 2) / 2.0**18
        assert_body_is_reference(tmp_path, ties[:-1])  # whole rows
        assert f"{131073 / 2**18:.17g}" == "0.50000381469726562"

    @pytest.mark.parametrize(
        "value, text",
        [
            (512.0, "512"),
            (1.0, "1"),
            (100.0, "100"),
            (1e8, "100000000"),
            (123456789.0, "123456789"),
            (0.5, "0.5"),
            (1e-4, "0.0001"),
            (0.0009765625, "0.0009765625"),  # 2**-10
            (20.25, "20.25"),
        ],
    )
    def test_whole_and_short_numbers(self, tmp_path, value, text):
        assert_body_is_reference(tmp_path, [value, value])
        assert encoder._format_block(np.array([value, value])).decode() == (
            f"{text},{text}\n"
        )

    @pytest.mark.parametrize("m", [0, 1, 16385])
    def test_row_counts(self, tmp_path, m):
        points = encode(figure_field(6, 64), halton(max(m, 1), 2)).points[:m]
        assert_body_is_reference(tmp_path, points)


def reference_read_points(path, text, sx, sy):
    """Reference: the point rows read line by line; the points or the error."""
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    rows = []
    for lineno, line in lines[1:]:
        fields = line.split(",")
        try:
            if len(fields) != 2:
                raise ValueError(f"expected 2 fields, found {len(fields)}")
            rows.append((float(fields[0]), float(fields[1])))
        except ValueError as exc:
            return f"{path}, line {lineno}: {exc}"
    points = np.array(rows).reshape(-1, 2)
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if bad.size:
        return f"{path}, line {lines[bad[0] + 1][0]}: non-finite coordinate"
    outside = np.flatnonzero(~((points > 0.0) & (points < (sx, sy))).all(axis=1))
    if outside.size:
        x, y = points[outside[0]].tolist()
        return (
            f"{path}, line {lines[outside[0] + 1][0]}: point ({x!r}, {y!r}) "
            f"outside the image (0, {sx}) x (0, {sy})"
        )
    return points


def scalar_walk(field, u):
    """Reference: one point at a time, rebuilding the blended row's CDF."""

    def bracket(cdf, t):
        k = bisect.bisect_right(cdf, t, 0, len(cdf) - 1)
        c_lo = cdf[k - 1] if k else 0.0
        return k, (t - c_lo) / (cdf[k] - c_lo)

    iy, wy = bracket(field.row_cdf, u[1])
    above = field.f[iy - 1] if iy else np.zeros(field.f.shape[1])
    col = np.cumsum(above + wy * (field.f[iy] - above))
    ix, wx = bracket(col / col[-1], u[0])
    return ix + wx, iy + wy


@pytest.fixture(scope="module")
def corpus_pgms(tmp_path_factory):
    """Corpus PGMs at 128x128, and a 1024x1024 figure written the same way."""
    out = tmp_path_factory.mktemp("corpus")
    generate_corpus(out, CorpusSpec(pair_count=2, size=128, seed=5))
    big = generate_figure([5, 0], 1024).pixels
    write_pgm(np.rint(big / big.max() * 65535.0), out / "big.pgm", maxval=65535)
    return sorted(out.glob("*.pgm"))


def test_encode_matches_scalar_walk_on_corpus_pgms(corpus_pgms):
    for path in corpus_pgms:
        img = load_image(path)
        seq = halton(16385 if img.pixels.shape[1] == 1024 else 2049, 2)
        for polarity in Polarity:
            field = make_density_field(normalize(img, polarity), 1e-4)
            got = encode(field, seq).points
            want = np.array([scalar_walk(field, u) for u in seq.points])
            assert np.max(np.abs(got - want)) <= 1e-9, (path.name, polarity)
