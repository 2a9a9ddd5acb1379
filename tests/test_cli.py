"""End-to-end tests of the command-line interface."""

import csv
import gc
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import densitycode.bench
import densitycode.corpus
import densitycode.image_io
import densitycode.quasirandom
from densitycode import (
    code_length,
    delta_median,
    generate_figure,
    read_code_csv,
    write_pgm,
)
from densitycode.cli import MAX_POINTS, main


@pytest.fixture()
def figure_pgm(tmp_path):
    img = generate_figure(21, 64)
    path = tmp_path / "figure.pgm"
    scaled = np.rint(img.pixels / img.pixels.max() * 65535.0)
    write_pgm(scaled, path, maxval=65535)
    return path


def test_encode_writes_code_file(figure_pgm, tmp_path, capsys):
    out = tmp_path / "figure.code.csv"
    rc = main(
        [
            "encode",
            "--image",
            str(figure_pgm),
            "--polarity",
            "light-on-dark",
            "--points",
            "200",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "m=200" in printed and "elapsed_ms=" in printed
    code = read_code_csv(out)
    assert code.m == 200
    assert len(out.read_text().splitlines()) == 201  # header + points


def test_encode_alpha_controls_length(figure_pgm, tmp_path, capsys):
    out = tmp_path / "a.code.csv"
    rc = main(
        [
            "encode",
            "--image",
            str(figure_pgm),
            "--polarity",
            "light-on-dark",
            "--points",
            "4096",
            "--alpha",
            "0.25",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    code = read_code_csv(out)
    assert code.alpha == 0.25
    assert 1 <= code.m < 4096


def test_encode_missing_polarity_is_usage_error(figure_pgm, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["encode", "--image", str(figure_pgm), "--out", str(tmp_path / "x")])
    assert excinfo.value.code != 0


def test_encode_missing_file_fails_cleanly(tmp_path, capsys):
    rc = main(
        [
            "encode",
            "--image",
            str(tmp_path / "nope.pgm"),
            "--polarity",
            "light-on-dark",
            "--out",
            str(tmp_path / "x.csv"),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_encode_reruns_byte_identical(figure_pgm, tmp_path):
    out1 = tmp_path / "one.csv"
    out2 = tmp_path / "two.csv"
    for out in (out1, out2):
        args = [
            "encode",
            "--image",
            str(figure_pgm),
            "--polarity",
            "light-on-dark",
            "--points",
            "128",
            "--out",
            str(out),
        ]
        assert main(args) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_encode_lambda_comes_from_the_flag_only(figure_pgm, tmp_path, monkeypatch):
    base = [
        "encode",
        "--image",
        str(figure_pgm),
        "--polarity",
        "light-on-dark",
        "--points",
        "64",
    ]
    plain_out = tmp_path / "plain.csv"
    env_out = tmp_path / "env.csv"
    flag_out = tmp_path / "flag.csv"
    assert main(base + ["--out", str(plain_out)]) == 0
    # the environment is not read
    monkeypatch.setenv("DC_LAMBDA", "0.01")
    assert main(base + ["--out", str(env_out)]) == 0
    assert env_out.read_bytes() == plain_out.read_bytes()
    assert read_code_csv(env_out).lam == 0.0001
    assert main(base + ["--lambda", "0.01", "--out", str(flag_out)]) == 0
    assert read_code_csv(flag_out).lam == 0.01


def test_encode_rejects_p2_header_larger_than_the_file(tmp_path, capsys):
    # a 10^12-sample header must fail before any raster is allocated
    path = tmp_path / "huge.pgm"
    path.write_bytes(b"P2\n1000000 1000000\n255\n1 2 3\n")
    args = ["encode", "--image", str(path), "--polarity", "light-on-dark"]
    assert main([*args, "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == "error: truncated P2 raster\n"


def test_encode_rejects_signed_p2_sample(tmp_path, capsys):
    path = tmp_path / "signed.pgm"
    path.write_bytes(b"P2\n2 2\n255\n1 2 3 -4\n")
    args = ["encode", "--image", str(path), "--polarity", "light-on-dark"]
    assert main([*args, "--out", str(tmp_path / "x.csv")]) == 1
    err = "error: malformed P2 raster: a sample is not a decimal number\n"
    assert capsys.readouterr().err == err


def test_out_of_memory_ends_as_error(figure_pgm, tmp_path, capsys, monkeypatch):
    def no_memory(m, n=2):
        raise MemoryError(f"Unable to allocate {16 * m} bytes")

    monkeypatch.setattr("densitycode.quasirandom.halton", no_memory)
    assert main(_encode_args(figure_pgm, tmp_path)) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 1024 bytes\n"


def test_compare_self_is_zero(figure_pgm, tmp_path, capsys):
    out = tmp_path / "c.csv"
    main(
        [
            "encode",
            "--image",
            str(figure_pgm),
            "--polarity",
            "light-on-dark",
            "--points",
            "256",
            "--out",
            str(out),
        ]
    )
    capsys.readouterr()
    rc = main(["compare", str(out), str(out), "--degree", "3"])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("delta=")
    assert float(line.split("=", 1)[1]) <= 1e-9


def test_compare_truncates_to_common_prefix(figure_pgm, tmp_path, capsys):
    short = tmp_path / "short.csv"
    long = tmp_path / "long.csv"
    for points, out in ((900, short), (1025, long)):
        main(
            [
                "encode",
                "--image",
                str(figure_pgm),
                "--polarity",
                "light-on-dark",
                "--points",
                str(points),
                "--out",
                str(out),
            ]
        )
    capsys.readouterr()
    rc = main(["compare", str(short), str(long), "--degree", "0"])
    assert rc == 0
    # prefixes of the same image's code agree exactly
    assert float(capsys.readouterr().out.strip().split("=", 1)[1]) == 0.0


def test_compare_writes_residuals(figure_pgm, tmp_path, capsys):
    other_pgm = tmp_path / "other.pgm"
    pixels = generate_figure(22, 64).pixels
    write_pgm(np.rint(pixels / pixels.max() * 65535.0), other_pgm, maxval=65535)
    codes = []
    for image in (figure_pgm, other_pgm):
        codes.append(tmp_path / f"{image.stem}.csv")
        args = ["encode", "--image", str(image), "--polarity", "light-on-dark"]
        assert main([*args, "--points", "64", "--out", str(codes[-1])]) == 0
    residuals = tmp_path / "resid.csv"
    for degree in (1, 0):
        rc = main(
            ["compare", *map(str, codes), "--degree", str(degree)]
            + ["--residuals", str(residuals)]
        )
        assert rc == 0
        report = delta_median(*map(read_code_csv, codes), degree)
        reference = "".join(
            f"{index},{value:.17g}\n" for index, value in enumerate(report.residuals)
        )
        assert residuals.read_bytes() == f"index,residual\n{reference}".encode()
        assert len(reference.splitlines()) == 64


def test_gen_corpus_and_sweep(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    rc = main(
        [
            "gen-corpus",
            "--out",
            str(corpus_dir),
            "--pairs",
            "2",
            "--size",
            "64",
            "--seed",
            "7",
        ]
    )
    assert rc == 0
    assert (corpus_dir / "manifest.csv").is_file()
    sweep_out = tmp_path / "sweep.csv"
    rc = main(
        [
            "sweep",
            "--corpus",
            str(corpus_dir),
            "--degree",
            "3",
            "--alpha-min",
            "0.01",
            "--alpha-max",
            "0.41",
            "--alpha-step",
            "0.2",
            "--out",
            str(sweep_out),
        ]
    )
    assert rc == 0
    with open(sweep_out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert rows[0]["status"] == "invalid"  # alpha=0.01 gives m < q at 64x64
    assert rows[0]["related_min"] == ""
    for row in rows[1:]:
        assert row["status"] == "ok"
        assert float(row["related_max"]) >= float(row["related_min"])
        assert float(row["unrelated_max"]) >= float(row["unrelated_min"])


def test_sweep_missing_manifest(tmp_path, capsys):
    rc = main(
        [
            "sweep",
            "--corpus",
            str(tmp_path),
            "--out",
            str(tmp_path / "s.csv"),
        ]
    )
    assert rc == 1
    assert "corpus incomplete" in capsys.readouterr().err


@pytest.mark.parametrize(
    "manifest, message",
    [
        ("pair,file_a\n0,pair0_A.pgm\n", "missing columns file_b"),
        ("size,seed\n64,7\n", "missing columns pair, file_a, file_b"),
        ("pair,file_a,file_b\n0,pair0_A.pgm\n", "line 2: fewer fields than the header"),
        (
            "pair,file_a,file_b\nabc,pair0_A.pgm,pair0_B.pgm\n",
            "manifest.csv: line 2: column 'pair': 'abc' is not an integer",
        ),
    ],
)
def test_sweep_rejects_malformed_manifest(tmp_path, capsys, manifest, message):
    (tmp_path / "manifest.csv").write_text(manifest)
    rc = main(["sweep", "--corpus", str(tmp_path), "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_sweep_refuses_a_one_pair_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert main(["gen-corpus", "--out", str(corpus), "--size", "64"]) == 0
    manifest = corpus / "manifest.csv"
    manifest.write_text("".join(manifest.read_text().splitlines(True)[:2]))
    capsys.readouterr()
    rc = main(["sweep", "--corpus", str(corpus), "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: corpus incomplete: need at least two pairs\n"
    )
    assert not (tmp_path / "s.csv").exists()


def test_bench_run_and_fit(tmp_path, capsys):
    timing = tmp_path / "timing.csv"
    rc = main(
        [
            "bench",
            "--heights",
            "16,32",
            "--widths",
            "16,32",
            "--lengths",
            "16,64",
            "--reps",
            "5",
            "--out",
            str(timing),
        ]
    )
    assert rc == 0
    with open(timing, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert set(rows[0]) == {"H", "W", "m", "reps", "median_ms"}
    capsys.readouterr()
    # too few samples for a meaningful fit is reported, not crashed
    rc = main(["bench", "fit", "--in", str(timing)])
    assert rc == 1
    assert "10 samples" in capsys.readouterr().err


def test_bench_fit_on_synthetic_csv(tmp_path, capsys):
    import math

    lines = ["H,W,m,reps,median_ms"]
    for h in (16, 64, 256):
        for w in (16, 64, 256):
            for m in (16, 128, 1024):
                hw = h * w
                t = 1e-4 * (0.7 * hw + 3.8 * m * (math.log2(hw) - 2.0) + 0.4 * m * w)
                lines.append(f"{h},{w},{m},10,{t:.17g}")
    path = tmp_path / "synth.csv"
    path.write_text("\n".join(lines) + "\n")
    rc = main(["bench", "fit", "--in", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("a=")
    parts = dict(kv.split("=") for kv in out.split())
    assert float(parts["a"]) == pytest.approx(0.7e-4, rel=1e-6)
    assert float(parts["b"]) == pytest.approx(3.8e-4, rel=1e-6)
    assert float(parts["c"]) == pytest.approx(0.4e-4, rel=1e-6)
    assert float(parts["r"]) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "text, missing",
    [("H,W\n16,16\n", "m, reps, median_ms"), ("", "H, W, m, reps, median_ms")],
)
def test_bench_fit_rejects_missing_columns(tmp_path, capsys, text, missing):
    path = tmp_path / "t.csv"
    path.write_text(text)
    rc = main(["bench", "fit", "--in", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"missing columns {missing}" in err


@pytest.mark.parametrize(
    "row, message",
    [
        ("64,64,128,10,nan", "median_ms must be finite"),
        ("64,64,128,10,inf", "median_ms must be finite"),
        ("64,64,128,10,-5", "median_ms must be finite and > 0"),
        ("0,64,128,10,1.5", "H, W and m must be >= 1"),
        ("16,16", "line 2: fewer fields than the header"),
        ("64,64,128,10,abc", "line 2: column 'median_ms': 'abc' is not a number"),
        ("16.5,64,128,10,1.5", "t.csv: line 2: column 'H': '16.5' is not an integer"),
    ],
)
def test_bench_fit_rejects_bad_timing_rows(tmp_path, capsys, row, message):
    lines = ["H,W,m,reps,median_ms", row]
    for h in (16, 64):
        for w in (16, 64):
            for m in (16, 128, 1024):
                lines.append(f"{h},{w},{m},10,{1e-4 * h * w + 1e-3 * m:.17g}")
    path = tmp_path / "t.csv"
    path.write_text("\n".join(lines) + "\n")
    rc = main(["bench", "fit", "--in", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err


def test_bench_requires_out(capsys):
    rc = main(["bench"])
    assert rc == 1
    assert "requires --out" in capsys.readouterr().err


def test_bench_fit_requires_in(capsys):
    rc = main(["bench", "fit"])
    assert rc == 1
    assert capsys.readouterr().err == "error: bench fit requires --in\n"


def _encode_args(figure_pgm, tmp_path, *extra):
    return [
        "encode",
        "--image",
        str(figure_pgm),
        "--polarity",
        "light-on-dark",
        "--points",
        "64",
        "--out",
        str(tmp_path / "bad.csv"),
        *extra,
    ]


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--lambda", "nan"], "lambda must be finite and > 0"),
        (["--lambda", "inf"], "lambda must be finite and > 0"),
        (["--lambda", "-1"], "lambda must be finite and > 0"),
        (["--lambda", "1e308"], "lambda too large"),
        (["--alpha", "inf"], "alpha must be finite and > 0"),
        (["--alpha", "nan"], "alpha must be finite and > 0"),
    ],
)
def test_encode_rejects_bad_lambda_and_alpha(
    figure_pgm, tmp_path, capsys, extra, message
):
    rc = main(_encode_args(figure_pgm, tmp_path, *extra))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "bad.csv").exists()


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    corpus_dir = tmp_path_factory.mktemp("corpus")
    args = ["gen-corpus", "--out", str(corpus_dir), "--pairs", "2", "--size", "64"]
    assert main(args) == 0
    return corpus_dir


@pytest.mark.parametrize(
    "grid, message",
    [
        (["--alpha-step", "0"], "--alpha-step > 0"),
        (["--alpha-step", "-0.01"], "--alpha-step > 0"),
        (["--alpha-step", "nan"], "--alpha-step > 0"),
        (["--alpha-max", "inf"], "alpha grid must be finite"),
        (["--alpha-min", "0.3", "--alpha-max", "0.2"], "must not exceed"),
        (["--alpha-step", "1e-300"], "alpha grid too fine"),
        (["--alpha-max", "1e308"], "alpha grid too fine"),
    ],
)
def test_sweep_rejects_bad_alpha_grid(small_corpus, tmp_path, capsys, grid, message):
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--corpus", str(small_corpus), "--out", str(out), *grid])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, alphas",
    [
        ([], [0.01 + i * 0.01 for i in range(50)]),  # the default grid
        (["--alpha-min", "0.1", "--alpha-max", "0.3", "--alpha-step", "0.1"],
         [0.1, 0.2, 0.3]),  # 0.2 / 0.1 falls an ulp short of 2 steps
        (["--alpha-min", "0.1", "--alpha-max", "0.36", "--alpha-step", "0.1"],
         [0.1, 0.2, 0.1 + 2 * 0.1]),  # 2.6 steps: the grid stops at 2
    ],
)
def test_sweep_grid_ends_within_alpha_max(small_corpus, tmp_path, grid, alphas):
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--corpus", str(small_corpus), "--out", str(out), *grid])
    assert rc == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [row["alpha"] for row in rows] == [f"{alpha:.17g}" for alpha in alphas]


def test_sweep_encodes_no_longer_than_its_last_alpha(
    small_corpus, tmp_path, monkeypatch
):
    # --alpha-max 0.055 ends the grid at 0.05, so every image is encoded to
    # the length 0.05 asks for, not to the longer one 0.055 would
    encoded = []
    invert = densitycode.corpus.invert

    def recording_invert(field, u):
        encoded.append((field.foreground_mass, len(u)))
        return invert(field, u)

    monkeypatch.setattr(densitycode.corpus, "invert", recording_invert)
    text = {}
    for hi in ("0.05", "0.055"):
        out = tmp_path / f"s{hi}.csv"
        args = ["sweep", "--corpus", str(small_corpus), "--out", str(out)]
        assert main([*args, "--alpha-max", hi]) == 0
        text[hi] = out.read_text()
    assert text["0.055"] == text["0.05"]
    last = float(text["0.05"].splitlines()[-1].split(",")[0])
    masses, lengths = zip(*encoded)
    assert lengths == tuple(code_length(mass, last, 10**9) for mass in masses)
    assert lengths != tuple(code_length(mass, 0.055, 10**9) for mass in masses)


def test_sweep_degree_beyond_every_code_gives_invalid_rows(
    small_corpus, tmp_path, monkeypatch
):
    # q = C(30002, 2) basis terms: the sweep must not build them to find out,
    # and with no row valid it builds no sequence and encodes nothing
    def halton_stub(m, n=2):
        raise AssertionError(f"halton({m}, {n}) built for no valid row")

    monkeypatch.setattr(densitycode.quasirandom, "halton", halton_stub)
    out = tmp_path / "s.csv"
    args = ["sweep", "--corpus", str(small_corpus), "--out", str(out)]
    assert main([*args, "--degree", "30000"]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 50 and {row["status"] for row in rows} == {"invalid"}


@pytest.fixture(scope="module")
def default_corpus(tmp_path_factory):
    corpus_dir = tmp_path_factory.mktemp("default_corpus")
    assert main(["gen-corpus", "--out", str(corpus_dir)]) == 0
    return corpus_dir


def test_sweep_alpha_that_empties_a_code_gives_an_invalid_row(default_corpus, tmp_path):
    # at alpha 0.0001 the lightest images round to no points; an empty code
    # is a short code, so its row is invalid and the sweep goes on
    out = tmp_path / "s.csv"
    grid = ["--alpha-min", "0.0001", "--alpha-max", "0.02", "--alpha-step", "0.0001"]
    args = ["sweep", "--corpus", str(default_corpus), "--out", str(out), *grid]
    assert main(args) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    polarity = densitycode.image_io.Polarity.LIGHT_ON_DARK
    entries = densitycode.corpus.load_corpus(default_corpus, polarity, 1e-4)
    lightest = min(field.foreground_mass for _, field in entries)
    emptied = [row for row in rows if float(row["alpha"]) * lightest + 0.5 < 1]
    assert emptied and {row["status"] for row in emptied} == {"invalid"}
    statuses = [row["status"] for row in rows]
    assert (statuses.count("invalid"), statuses.count("ok")) == (82, 118)


def test_sweep_bounds_the_sequence_length_it_derives(
    small_corpus, tmp_path, capsys, monkeypatch
):
    # without --points, alpha * mass overflows and would ask for the longest
    # sequence there is; the stub stands in for halton, so nothing is built
    requested = []

    def halton_stub(m, n=2):
        requested.append(m)
        raise MemoryError(f"halton({m}, {n}) not built")

    monkeypatch.setattr(densitycode.quasirandom, "halton", halton_stub)
    out = tmp_path / "s.csv"
    grid = ["--alpha-min", "1e308", "--alpha-max", "1e308"]
    rc = main(["sweep", "--corpus", str(small_corpus), "--out", str(out), *grid])
    assert rc == 1
    err = capsys.readouterr().err
    assert requested == []
    assert err.startswith("error: ") and "set --points" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["encode", "sweep"])
def test_points_above_the_limit_are_refused(
    figure_pgm, small_corpus, tmp_path, capsys, monkeypatch, command
):
    # the stub stands in for halton, so no sequence is built
    requested = []

    def halton_stub(m, n=2):
        requested.append(m)
        raise MemoryError(f"halton({m}, {n}) not built")

    monkeypatch.setattr(densitycode.quasirandom, "halton", halton_stub)
    out = tmp_path / "out.csv"
    if command == "encode":
        args = ["encode", "--image", str(figure_pgm), "--polarity", "light-on-dark"]
    else:
        args = ["sweep", "--corpus", str(small_corpus)]
    rc = main([*args, "--points", str(MAX_POINTS + 1), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert requested == []
    limit = MAX_POINTS
    assert err == f"error: --points {limit + 1} exceeds the limit of {limit}\n"
    assert not out.exists()


def never_reached(*args, **kwargs):
    raise AssertionError("ran past the flag checks")


@pytest.fixture()
def loaders_refused(monkeypatch):
    # the stubs stand in for the loaders: a flag is refused before any runs
    def loader_stub(*args):
        raise AssertionError("loaded input before checking the flags")

    monkeypatch.setattr(densitycode.image_io, "load_image", loader_stub)
    monkeypatch.setattr(densitycode.corpus, "load_corpus", loader_stub)
    monkeypatch.setattr(densitycode.cli, "read_code_csv", loader_stub)


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("encode", ["--points", "0"], "--points must be >= 1, got 0"),
        ("encode", ["--points", "-3"], "--points must be >= 1, got -3"),
        ("sweep", ["--points", "0"], "--points must be >= 1, got 0"),
        ("sweep", ["--points", "-3"], "--points must be >= 1, got -3"),
        ("sweep", ["--alpha-min", "0"], "--alpha-min must be > 0, got 0"),
        ("sweep", ["--alpha-min", "-0.0"], "--alpha-min must be > 0, got -0"),
        ("sweep", ["--alpha-min", "-0.25"], "--alpha-min must be > 0, got -0.25"),
    ],
)
def test_bad_length_flags_are_named_before_anything_loads(
    loaders_refused, tmp_path, capsys, command, flags, message
):
    out = tmp_path / "out.csv"
    if command == "encode":
        args = ["encode", "--image", "absent.pgm", "--polarity", "light-on-dark"]
    else:
        args = ["sweep", "--corpus", "absent"]
    rc = main([*args, *flags, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--pairs", "1"], "--pairs must be >= 2, got 1"),
        (["--pairs", "-2"], "--pairs must be >= 2, got -2"),
        (["--size", "10"], "--size must be >= 64, got 10"),
        (["--size", "63"], "--size must be >= 64, got 63"),
        (["--seed", "-1"], "--seed must be >= 0, got -1"),
        (["--size", "4097"], "--size must be <= 4096, got 4097"),
        (["--size", "100000"], "--size must be <= 4096, got 100000"),
    ],
)
def test_bad_corpus_flags_are_named_before_anything_is_written(
    tmp_path, capsys, monkeypatch, flags, message
):
    # the stub fails if reached: a bad flag is refused before any figure is built
    monkeypatch.setattr(densitycode.corpus, "generate_corpus", never_reached)
    out = tmp_path / "corpus"
    rc = main(["gen-corpus", *flags, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--heights", "", "--heights must list at least one integer"),
        ("--widths", " , ", "--widths must list at least one integer"),
        ("--lengths", "16,x", "--lengths must list integers, got '16,x'"),
        ("--heights", "16,32.5", "--heights must list integers, got '16,32.5'"),
        ("--heights", "8", "--heights sizes must be >= 16, got 8"),
        ("--widths", "32,15", "--widths sizes must be >= 16, got 15"),
        ("--lengths", "-16", "--lengths sizes must be >= 16, got -16"),
        (
            "--lengths",
            "16,10000001",
            "--lengths sizes must be <= 10000000, got 10000001",
        ),
        ("--reps", "2", "--reps must be >= 5, got 2"),
        ("--reps", "-1", "--reps must be >= 5, got -1"),
    ],
)
def test_bench_grid_flags_are_named_before_any_timing(
    tmp_path, capsys, monkeypatch, flag, value, message
):
    # the stub fails if reached: a bad flag is refused before any timing
    monkeypatch.setattr(densitycode.bench, "run_grid", never_reached)
    out = tmp_path / "t.csv"
    rc = main(["bench", flag, value, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# (module, constant, a patched value, the flags it refuses and their message,
# the library's own check and its message)
FLAG_BOUNDS = [
    (
        "bench",
        "MIN_GRID_SIZE",
        32,
        ["bench", "--heights", "16"],
        "--heights sizes must be >= 32, got 16",
        lambda: densitycode.bench.run_grid([16], [32], [32], 5),
        "all grid sizes must be >= 32",
    ),
    (
        "bench",
        "MIN_REPS",
        6,
        ["bench", "--reps", "5"],
        "--reps must be >= 6, got 5",
        lambda: densitycode.bench.run_grid([16], [16], [16], 5),
        "reps must be >= 6",
    ),
    (
        "corpus",
        "MIN_PAIRS",
        3,
        ["gen-corpus", "--pairs", "2"],
        "--pairs must be >= 3, got 2",
        lambda: densitycode.corpus.CorpusSpec(pair_count=2),
        "pair_count must be >= 3",
    ),
    (
        "corpus",
        "MIN_FIGURE_SIZE",
        128,
        ["gen-corpus", "--size", "64"],
        "--size must be >= 128, got 64",
        lambda: densitycode.corpus.CorpusSpec(size=64),
        "size must be in 128..4096, got 64",
    ),
    (
        "corpus",
        "MAX_FIGURE_SIZE",
        256,
        ["gen-corpus", "--size", "512"],
        "--size must be <= 256, got 512",
        lambda: densitycode.corpus.CorpusSpec(size=512),
        "size must be in 64..256, got 512",
    ),
]


@pytest.mark.parametrize(
    "module, name, value, flags, message, library_call, library_message",
    FLAG_BOUNDS,
    ids=[bound[1] for bound in FLAG_BOUNDS],
)
def test_each_flag_bound_is_the_library_constant(
    tmp_path,
    capsys,
    monkeypatch,
    module,
    name,
    value,
    flags,
    message,
    library_call,
    library_message,
):
    # one owner per bound: the library's check and the flag's message both
    # follow its constant
    monkeypatch.setattr(getattr(densitycode, module), name, value)
    out = tmp_path / "out"
    assert main([*flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    with pytest.raises(ValueError) as refused:
        library_call()
    assert str(refused.value) == library_message


@pytest.mark.parametrize("flag", ["--seed", "--lambda"])
def test_bench_takes_no_seed_or_lambda(tmp_path, capsys, flag):
    # no timed step depends on the pixel values or on lambda
    out = tmp_path / "t.csv"
    with pytest.raises(SystemExit) as exited:
        main(["bench", "run", flag, "1", "--out", str(out)])
    assert exited.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["encode", "--alpha", "0"], "--alpha must be finite and > 0, got 0"),
        (["encode", "--alpha", "-0.5"], "--alpha must be finite and > 0, got -0.5"),
        (["encode", "--alpha", "inf"], "--alpha must be finite and > 0, got inf"),
        (["encode", "--alpha", "nan"], "--alpha must be finite and > 0, got nan"),
        (["compare", "--degree", "-1"], "--degree must be >= 0, got -1"),
        (["sweep", "--degree", "-1"], "--degree must be >= 0, got -1"),
    ],
)
def test_bad_alpha_and_degree_are_named_before_anything_loads(
    loaders_refused, tmp_path, capsys, args, message
):
    out = tmp_path / "out.csv"
    inputs = {
        "encode": ["--image", "absent.pgm", "--polarity", "light-on-dark", "--out"],
        "compare": ["absent_v.csv", "absent_w.csv", "--residuals"],
        "sweep": ["--corpus", "absent", "--out"],
    }
    command, *flags = args
    rc = main([command, *inputs[command], str(out), *flags])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["encode", "sweep"])
@pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
def test_bad_lambda_is_named_before_anything_loads(
    loaders_refused, tmp_path, capsys, command, value
):
    out = tmp_path / "out.csv"
    inputs = {
        "encode": ["--image", "absent.pgm", "--polarity", "light-on-dark"],
        "sweep": ["--corpus", "absent"],
    }
    rc = main([command, *inputs[command], "--lambda", value, "--out", str(out)])
    assert rc == 1
    message = f"--lambda must be finite and > 0, got {value}"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_huge_alpha_takes_the_whole_sequence(figure_pgm, small_corpus, tmp_path):
    # alpha * mass overflows to inf; the code is then as long as the sequence
    code_out = tmp_path / "code.csv"
    args = ["encode", "--image", str(figure_pgm), "--polarity", "light-on-dark"]
    args += ["--points", "64", "--alpha", "1e308", "--out", str(code_out)]
    assert main(args) == 0
    assert read_code_csv(code_out).m == 64
    sweep_out = tmp_path / "s.csv"
    grid = ["--alpha-min", "1e308", "--alpha-max", "1e308", "--points", "300"]
    args = ["sweep", "--corpus", str(small_corpus), "--out", str(sweep_out), *grid]
    assert main(args) == 0
    rows = list(csv.DictReader(sweep_out.read_text().splitlines()))
    assert [row["status"] for row in rows] == ["ok"]


@pytest.mark.parametrize(
    "row, message",
    [
        ("1.5,2.5,3.5", "line 3: expected 2 fields, found 3"),
        ("1.5", "line 3: expected 2 fields, found 1"),
        ("nan,2.5", "line 3: non-finite coordinate"),
        ("1.5,inf", "line 3: non-finite coordinate"),
        ("1.5,abc", "line 3: could not convert"),
    ],
)
@pytest.mark.parametrize("degree", ["0", "1"])
def test_compare_rejects_malformed_code_rows(tmp_path, capsys, row, message, degree):
    good = tmp_path / "good.csv"
    bad = tmp_path / "bad.csv"
    header = (
        "# density-code v1, n=2, m=4, Sx=8, Sy=8, lambda=0.0001, "
        "alpha=none, polarity=none, seq=halton\n"
    )
    points = ["1.0,1.0", "2.0,5.0", "6.0,3.0", "4.0,7.0"]
    good.write_text(header + "\n".join(points) + "\n")
    bad.write_text(header + "\n".join([points[0], row, *points[2:]]) + "\n")
    rc = main(["compare", str(good), str(bad), "--degree", degree])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


GOOD_POINTS = ("1,1", "2,5", "6,3", "4,7")


def write_code(
    path, polarity="light-on-dark", seq="halton", points=GOOD_POINTS, sx=8, sy=8
):
    path.write_text(
        f"# density-code v1, n=2, m={len(points)}, Sx={sx}, Sy={sy}, lambda=0.0001, "
        f"alpha=none, polarity={polarity}, seq={seq}\n" + "\n".join(points) + "\n"
    )
    return path


def test_compare_names_the_file_whose_point_count_disagrees(tmp_path, capsys):
    ok = write_code(tmp_path / "ok.csv", points=GOOD_POINTS[:3])
    short = write_code(tmp_path / "short.csv", points=GOOD_POINTS[:3])
    short.write_text(short.read_text().replace("2,5\n", ""))  # header keeps m=3
    rc = main(["compare", str(ok), str(short), "--degree", "0"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {short}: header says m=3, found 2 points\n"
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("1,2\n", "missing code-file header"),
        ("", "missing code-file header"),
        ("# density-code v2\n1,2\n", "unrecognized code-file format 'density-code v2'"),
        ("# density-code v1, n=3\n1,2,3\n", "only 2-D codes are supported"),
    ],
)
def test_compare_names_the_code_file_whose_header_is_bad(
    tmp_path, capsys, text, message
):
    nohdr = tmp_path / "nohdr.csv"
    nohdr.write_text(text)
    b = write_code(tmp_path / "b.csv")
    rc = main(["compare", str(nohdr), str(b), "--degree", "0"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {nohdr}: {message}\n"


@pytest.mark.parametrize("command", ["compare", "sweep", "bench"])
def test_a_file_that_is_not_utf8_is_named(tmp_path, capsys, command):
    bad = tmp_path / ("manifest.csv" if command == "sweep" else "bad.csv")
    bad.write_bytes(b"\xff\xfe#, not text\n")
    good = str(write_code(tmp_path / "good.csv"))
    argv = {
        "compare": ["compare", str(bad), good, "--degree", "0"],
        "sweep": ["sweep", "--corpus", str(tmp_path), "--out", str(tmp_path / "s.csv")],
        "bench": ["bench", "fit", "--in", str(bad)],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"
    )


def test_compare_rejects_point_outside_image(tmp_path, capsys):
    good = write_code(tmp_path / "good.csv")
    bad = write_code(tmp_path / "bad.csv", points=("1,1", "2,5", "6,8", "4,7"))
    rc = main(["compare", str(good), str(bad), "--degree", "0"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "line 4: point (6.0, 8.0) outside the image (0, 8) x (0, 8)" in captured.err


@pytest.mark.parametrize(
    "header, message",
    [
        ({"polarity": "dark-on-light"}, "polarity: light-on-dark vs dark-on-light"),
        ({"polarity": "none"}, "polarity: light-on-dark vs none"),
        ({"seq": "sobol"}, "seq: halton vs sobol"),
    ],
)
def test_compare_refuses_codes_of_different_headers(tmp_path, capsys, header, message):
    v = write_code(tmp_path / "v.csv")
    w = write_code(tmp_path / "w.csv", **header)
    rc = main(["compare", str(v), str(w), "--degree", "1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: codes differ in {message}\n"


@pytest.mark.parametrize(
    "size, warning",
    [
        ({}, ""),
        (
            {"sx": 16},
            "warning: --degree 0 compares raw pixel units of a 8x8 and a 16x8 "
            "image (Sx x Sy); degree >= 1 absorbs scale\n",
        ),
        (
            {"sy": 12},
            "warning: --degree 0 compares raw pixel units of a 8x8 and a 8x12 "
            "image (Sx x Sy); degree >= 1 absorbs scale\n",
        ),
    ],
)
def test_compare_at_degree_0_warns_when_the_image_sizes_differ(
    tmp_path, capsys, size, warning
):
    # the same points under either header: only stderr may tell them apart
    v, points = write_code(tmp_path / "v.csv"), ("2,1", "1,4", "7,3", "5,7")
    w = write_code(tmp_path / "w.csv", points=points)
    sized = write_code(tmp_path / "sized.csv", points=points, **size)
    runs = {}
    for degree in ("0", "1"):
        for name, target in (("plain", w), ("sized", sized)):
            residuals = tmp_path / f"{name}{degree}.csv"
            args = ["compare", str(v), str(target), "--degree", degree]
            rc = main([*args, "--residuals", str(residuals)])
            captured = capsys.readouterr()
            runs[name, degree] = (rc, captured.out, residuals.read_bytes())
            want = warning if (name, degree) == ("sized", "0") else ""
            assert captured.err == want
    for degree in ("0", "1"):
        assert runs["sized", degree] == runs["plain", degree]
        assert runs["plain", degree][0] == 0


def test_compare_rejects_degree_beyond_code_length(tmp_path, capsys):
    v = write_code(tmp_path / "v.csv")
    assert main(["compare", str(v), str(v), "--degree", "30000"]) == 1
    err = capsys.readouterr().err
    assert err == "error: code too short for degree 30000: m=4 < q=450045001\n"


def run_python(cwd, *args):
    """Run a fresh interpreter with ``args`` on this package's source."""
    src = str(Path(densitycode.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, "COLUMNS": "80"}
    env.pop("PYTHONUNBUFFERED", None)  # output to a pipe waits for the exit's flush
    cmd = [sys.executable, *args]
    return subprocess.run(
        cmd, cwd=cwd, capture_output=True, text=True, env=env, timeout=120
    )


def test_compare_checks_hold_without_asserts(tmp_path):
    # the header and range checks must raise, not assert: -O strips asserts
    v = write_code(tmp_path / "v.csv")
    w = write_code(tmp_path / "w.csv", polarity="dark-on-light")
    outside = write_code(tmp_path / "outside.csv", points=("1,1", "2,5", "6,3", "4,9"))
    cli = ["-O", "-m", "densitycode.cli", "compare", str(v)]
    for target, message in ((w, "differ in polarity"), (outside, "outside the image")):
        proc = run_python(tmp_path, *cli, str(target), "--degree", "1")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and message in proc.stderr


def test_the_process_prints_a_numerics_warning_as_one_line(tmp_path):
    # three equal source points send the degree-1 fit to the SVD, which
    # warns: the process prints it as the CLI prints its own warnings
    same = write_code(tmp_path / "same.csv", points=("3,4",) * 3)
    spread = write_code(tmp_path / "spread.csv", points=("1,2", "5,3", "2.5,7"))
    args = ["compare", str(same), str(spread), "--degree", "1"]
    proc = run_python(tmp_path, "-m", "densitycode.cli", *args)
    assert proc.returncode == 0 and proc.stdout == "delta=100\n"
    assert proc.stderr.startswith("warning: degree-1 fit went to the SVD for 1 of 1")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    # in process, main() leaves Python's warnings as they are
    formatwarning = warnings.formatwarning
    with pytest.warns(RuntimeWarning, match="went to the SVD") as record:
        assert main(args) == 0
    assert record[0].filename == densitycode.cli.__file__
    assert warnings.formatwarning is formatwarning


def test_a_numerics_warning_raised_as_an_error_ends_as_an_error(tmp_path):
    # under -W error::RuntimeWarning the near-collinear source's fit warns
    # by raising: the process prints it as one error line, not a traceback
    rng = np.random.default_rng(21)
    t = rng.uniform(0.0, 100.0, size=80)
    V = np.column_stack((t, t + 1e-7 * rng.normal(size=80)))
    W = np.column_stack((t, t**2 / 100.0)) + rng.normal(0.0, 0.5, size=(80, 2))
    codes = []  # moved into a 128 x 128 image; the fit maps each source anyway
    for name, points in (("v", V + 10.0), ("w", W + 10.0)):
        rows = [f"{x!r},{y!r}" for x, y in points.tolist()]
        path = write_code(tmp_path / f"{name}.csv", points=rows, sx=128, sy=128)
        codes.append(str(path))
    args = ["-W", "error::RuntimeWarning", "-m", "densitycode.cli", "compare", *codes]
    proc = run_python(tmp_path, *args, "--degree", "1")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: degree-1 fit went to the SVD for 1 of 1")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


# tokens a mutated header or row may take: empty, signed, non-finite, past
# every limit, or of the wrong kind
HOSTILE = [b"", b"0", b"-1", b"1", b"-0", b"0.5", b"nan", b"inf", b"-inf", b"1e309"]
HOSTILE += [b"255", b"256", b"65536", b"4294967297", b"99999999999", b"x", b"P5", b"#"]


def mutate(data: bytes, rng) -> bytes:
    """One seeded mutation: overwrite, truncate, cut, repeat or swap a token."""
    kind = rng.integers(5)
    if kind == 0:
        out = bytearray(data)
        for k in rng.integers(0, len(out), rng.integers(1, 4)):
            out[k] = rng.integers(256)
        return bytes(out)
    if kind == 1:
        return data[: rng.integers(len(data))]
    i, j = sorted(rng.integers(0, len(data), 2))
    if kind == 2:
        return data[:i] + data[j:]
    if kind == 3:
        return data[:j] + data[i:]
    tokens = re.split(rb"([\s,=]+)", data)  # separators at odd indices
    # half the swaps land in the first tokens: the magic, header or first row
    k = rng.integers(min(len(tokens), 16) if rng.integers(2) else len(tokens))
    tokens[k] = HOSTILE[rng.integers(len(HOSTILE))]
    return b"".join(tokens)


def test_mutated_inputs_end_as_a_result_or_an_error(tmp_path, capsys):
    # 300 seeded mutations of P5, P2 and code files; every run must end with
    # exit 0, or with "error: ..." and exit 1, never a traceback or a
    # RuntimeWarning (raised here as an error)
    px = np.rint(generate_figure(8, 64).pixels)
    write_pgm(px, tmp_path / "p5.pgm", binary=True)
    write_pgm(px, tmp_path / "p2.pgm", binary=False)
    write_pgm(np.rint(generate_figure(9, 64).pixels), tmp_path / "partner.pgm")
    for name in ("p5", "partner"):
        image, out = tmp_path / f"{name}.pgm", tmp_path / f"{name}.csv"
        argv = ["encode", "--image", str(image), "--polarity", "light-on-dark"]
        assert main([*argv, "--points", "64", "--out", str(out)]) == 0
    rng = np.random.default_rng(20261018)
    names = ("p5.pgm", "p2.pgm", "p5.csv")
    bases = {name: (tmp_path / name).read_bytes() for name in names}
    capsys.readouterr()
    for run in range(300):
        name = names[run % 3]
        mutant = tmp_path / f"mutant{run}{Path(name).suffix}"
        mutant.write_bytes(mutate(bases[name], rng))
        if name.endswith(".pgm"):
            out = tmp_path / "out.csv"
            argv = ["encode", "--image", str(mutant), "--polarity", "light-on-dark"]
            argv += ["--points", "64", "--out", str(out)]
        else:
            codes = [str(mutant), str(tmp_path / "partner.csv")]
            if run % 2:  # the mutant as the target
                codes.reverse()
            argv = ["compare", *codes, "--degree", str(run % 4)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                rc = main(argv)
            except Exception as exc:  # it would escape the CLI as a traceback
                pytest.fail(f"{mutant.name}: {type(exc).__name__}: {exc}")
        err = capsys.readouterr().err
        assert (rc, err) == (0, "") or rc == 1 and err.startswith("error: "), (
            mutant.name, rc, err
        )


# the process entry: `python -m densitycode.cli` and the `density-code` script


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(figure_pgm, tmp_path, enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        assert main(_encode_args(figure_pgm, tmp_path)) == 0
        assert main(["bench", "--reps", "2", "--out", str(tmp_path / "t.csv")]) == 1
        with pytest.raises(SystemExit):
            main(["encode"])
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.fixture(scope="module")
def entry_inputs(small_corpus, tmp_path_factory):
    work = tmp_path_factory.mktemp("entry")
    for side in "AB":
        image = str(small_corpus / f"pair0_{side}.pgm")
        args = ["encode", "--image", image, "--polarity", "light-on-dark"]
        assert main([*args, "--points", "256", "--out", str(work / f"{side}.csv")]) == 0
    # twelve samples on the three-term model, enough for `bench fit`
    rows = ["H,W,m,reps,median_ms"]
    for h, w, m in np.ndindex(2, 2, 3):
        H, W, M = 16 << h, 16 << w, 16 << m
        rows.append(f"{H},{W},{M},5,{1e-4 * H * W + 1e-3 * M * W:.17g}")
    (work / "timing.csv").write_text("\n".join(rows) + "\n")
    return {"corpus": str(small_corpus), "codes": str(work)}


ENTRY_CASES = {
    "gen-corpus": ["gen-corpus", "--out", "corpus", "--pairs", "2", "--size", "64"],
    "encode": ["encode", "--image", "{corpus}/pair0_A.pgm"]
    + ["--polarity", "light-on-dark", "--points", "256", "--out", "a.csv"],
    "compare": ["compare", "{codes}/A.csv", "{codes}/B.csv", "--degree", "3"]
    + ["--residuals", "r.csv"],
    "sweep": ["sweep", "--corpus", "{corpus}", "--alpha-max", "0.1", "--out", "s.csv"],
    "bad-input": ["encode", "--image", "absent.pgm", "--polarity", "light-on-dark"]
    + ["--out", "x.csv"],
    "usage": ["encode", "--image", "absent.pgm", "--points", "ten"],
}


def written(directory):
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("case", list(ENTRY_CASES))
def test_module_entry_matches_main_in_process(
    entry_inputs, tmp_path, capsys, monkeypatch, case
):
    argv = [arg.format(**entry_inputs) for arg in ENTRY_CASES[case]]
    cold_dir, warm_dir = tmp_path / "cold", tmp_path / "warm"
    cold_dir.mkdir()
    warm_dir.mkdir()
    cold = run_python(cold_dir, "-m", "densitycode.cli", *argv)
    monkeypatch.chdir(warm_dir)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    capsys.readouterr()
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    warm = capsys.readouterr()
    timing = re.compile(r"elapsed_ms=\S+")
    assert cold.returncode == status == {"bad-input": 1, "usage": 2}.get(case, 0)
    assert timing.sub("", cold.stdout) == timing.sub("", warm.out)
    assert cold.stderr == warm.err
    assert written(cold_dir) == written(warm_dir)


ALL_COMMANDS = {
    name: ENTRY_CASES[name] for name in ("gen-corpus", "encode", "compare", "sweep")
}
ALL_COMMANDS["bench"] = ["bench", "--heights", "16", "--widths", "16,32"]
ALL_COMMANDS["bench"] += ["--lengths", "16,64", "--reps", "5", "--out", "t.csv"]
ALL_COMMANDS["bench-fit"] = ["bench", "fit", "--in", "{codes}/timing.csv"]


@pytest.mark.parametrize("command", list(ALL_COMMANDS))
def test_every_command_closes_what_it_writes(entry_inputs, tmp_path, command):
    # the entry freezes what is alive when a command ends, and the collector
    # never frees a frozen object: a file left open in a cycle would never
    # be flushed; a file closed only when collected warns here
    argv = [arg.format(**entry_inputs) for arg in ALL_COMMANDS[command]]
    body = (
        "import gc, sys\n"
        "from densitycode.cli import main\n"
        "status = main(sys.argv[1:])\n"
        "gc.collect()\n"
        "sys.exit(status)\n"
    )
    dev = ["-X", "dev", "-W", "error::ResourceWarning"]
    proc = run_python(tmp_path, *dev, "-c", body, *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
