"""Command-line interface: encode, compare, sweep, bench, gen-corpus.

Numeric output uses 17 significant digits so diffs catch real changes.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    # run as the program: the imports below make objects that live until
    # exit, so collecting during them frees nothing; run() switches it back on
    gc.disable()

import argparse
import math
import sys
import time
from itertools import chain
from pathlib import Path

# every command loads the encoder; each loads the rest of the package itself
from .encoder import MAX_POINTS, Polarity, read_code_csv

DEFAULT_LAMBDA = 1e-4
DEFAULT_SEED = 42
DEFAULT_GRID = "16,32,64,128,256,512"
DEFAULT_LENGTHS = "16,32,64,128,256,512,1024"
TIMING_COLUMNS = {"H": int, "W": int, "m": int, "reps": int, "median_ms": float}
# a sweep fits every ordered image pair at each alpha of its grid
MAX_ALPHAS = 10**5
# bench.run_grid's own bounds, checked here in the flags' words before it loads
MIN_GRID_SIZE = 16
MIN_REPS = 5
# and CorpusSpec's, checked the same way before the corpus module loads
MIN_PAIRS = 2
MIN_CORPUS_SIZE = 64
MAX_CORPUS_SIZE = 4096


def _grid_sizes(text: str, flag: str) -> list[int]:
    """A comma-separated grid flag's sizes, refusing none, a non-integer or one < 16."""
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"{flag} must list integers, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} must list at least one integer")
    if min(values) < MIN_GRID_SIZE:
        raise ValueError(f"{flag} sizes must be >= {MIN_GRID_SIZE}, got {min(values)}")
    return values


def _check_points(points: int) -> None:
    """Refuse a --points value outside 1 .. MAX_POINTS, naming the flag."""
    if points < 1:
        raise ValueError(f"--points must be >= 1, got {points}")
    if points > MAX_POINTS:
        raise ValueError(f"--points {points} exceeds the limit of {MAX_POINTS}")


def _check_degree(degree: int) -> None:
    if degree < 0:
        raise ValueError(f"--degree must be >= 0, got {degree}")


def cmd_encode(args) -> int:
    from .encoder import EncodeParams, encode, write_code_csv
    from .image_io import load_image, make_density_field, normalize
    from .quasirandom import halton

    _check_points(args.points)
    if args.alpha is not None and not 0 < args.alpha < math.inf:
        raise ValueError(f"--alpha must be finite and > 0, got {args.alpha:g}")
    img = load_image(args.image)
    polarity = Polarity(args.polarity)
    t0 = time.perf_counter()
    nimg = normalize(img, polarity)
    field = make_density_field(nimg, args.lam)
    seq = halton(args.points)
    code = encode(field, seq, EncodeParams(alpha=args.alpha))
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    write_code_csv(code, args.out)
    print(f"m={code.m} elapsed_ms={elapsed_ms:.17g}")
    return 0


def cmd_compare(args) -> int:
    from .matcher import delta_median

    _check_degree(args.degree)
    code_v = read_code_csv(args.code_v)
    code_w = read_code_csv(args.code_w)
    # points correspond only between codes of one sequence and one polarity
    for header, attr in (("seq", "seq_name"), ("polarity", "polarity")):
        v, w = (getattr(code, attr) or "none" for code in (code_v, code_w))
        if v != w:
            raise ValueError(f"codes differ in {header}: {v} vs {w}")
    sizes = [f"{code.sx}x{code.sy}" for code in (code_v, code_w)]
    if args.degree == 0 and sizes[0] != sizes[1]:
        print(
            f"warning: --degree 0 compares raw pixel units of a {sizes[0]} and a "
            f"{sizes[1]} image (Sx x Sy); degree >= 1 absorbs scale",
            file=sys.stderr,
        )
    report = delta_median(code_v, code_w, args.degree)
    print(f"delta={report.delta:.17g}")
    if args.residuals:
        residuals = report.residuals.tolist()
        cells = chain.from_iterable(enumerate(residuals))  # index, value, ...
        rows = "%d,%.17g\n" * len(residuals) % tuple(cells)
        Path(args.residuals).write_text("index,residual\n" + rows, encoding="utf-8")
    return 0


def cmd_sweep(args) -> int:
    from .corpus import SweepRow, load_corpus, sweep, sweep_length

    lo, hi, step = args.alpha_min, args.alpha_max, args.alpha_step
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0:
        raise ValueError("alpha grid must be finite with --alpha-step > 0")
    if lo <= 0:
        raise ValueError(f"--alpha-min must be > 0, got {lo:g}")
    if lo > hi:
        raise ValueError("--alpha-min must not exceed --alpha-max")
    count = (hi - lo) / step
    if not count < MAX_ALPHAS:  # also true when the quotient overflows to inf
        raise ValueError(f"alpha grid too fine: {count:.3g} steps, limit {MAX_ALPHAS}")
    if args.points is not None:
        _check_points(args.points)
    _check_degree(args.degree)
    entries = load_corpus(Path(args.corpus), Polarity(args.polarity), args.lam)
    # the grid ends at the last step within --alpha-max; a count a rounding
    # error short of an integer (decimal flags rounded to binary) takes that step
    steps = math.floor(count)
    if math.isclose(count, steps + 1, rel_tol=1e-9):
        steps += 1
    alphas = [min(lo + i * step, hi) for i in range(steps + 1)]
    points = args.points
    if points is None:  # the grid ascends: its last alpha asks the longest codes
        points = sweep_length(entries, alphas[-1])
        if points > MAX_POINTS:
            raise ValueError(
                f"--alpha-max {hi:g} asks for codes over {MAX_POINTS} points; "
                "set --points"
            )
    rows = sweep(entries, alphas, args.degree, points)
    lines = [",".join(SweepRow._fields)]
    for *values, status in rows:  # an invalid row has no band edges
        cells = ["" if value is None else f"{value:.17g}" for value in values]
        lines.append(",".join([*cells, status]))
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"alphas={len(rows)} out={args.out}")
    return 0


def cmd_bench(args) -> int:
    if args.mode == "fit":
        from .bench import TimingSample, fit_model
        from .corpus import read_table

        if not args.infile:
            raise ValueError("bench fit requires --in")
        rows = read_table(args.infile, TIMING_COLUMNS)
        samples = [TimingSample(**row) for row in rows]
        model = fit_model(samples)
        print(
            f"a={model.a:.17g} b={model.b:.17g} c={model.c:.17g} "
            f"r={model.r:.17g} rmse_ms={model.rmse_ms:.17g}"
        )
        return 0
    if not args.out:
        raise ValueError("bench requires --out")
    heights = _grid_sizes(args.heights, "--heights")
    widths = _grid_sizes(args.widths, "--widths")
    lengths = _grid_sizes(args.lengths, "--lengths")
    if args.reps < MIN_REPS:
        raise ValueError(f"--reps must be >= {MIN_REPS}, got {args.reps}")
    from .bench import run_grid

    samples = run_grid(
        heights, widths, lengths, reps=args.reps, seed=args.seed, lam=args.lam
    )
    lines = [",".join(TIMING_COLUMNS)]
    for s in samples:
        lines.append(f"{s.H},{s.W},{s.m},{s.reps},{s.median_ms:.17g}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"samples={len(samples)} out={args.out}")
    return 0


def cmd_gen_corpus(args) -> int:
    if args.pairs < MIN_PAIRS:
        raise ValueError(f"--pairs must be >= {MIN_PAIRS}, got {args.pairs}")
    if args.size < MIN_CORPUS_SIZE:
        raise ValueError(f"--size must be >= {MIN_CORPUS_SIZE}, got {args.size}")
    if args.size > MAX_CORPUS_SIZE:
        raise ValueError(f"--size must be <= {MAX_CORPUS_SIZE}, got {args.size}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    from .corpus import CorpusSpec, generate_corpus

    spec = CorpusSpec(pair_count=args.pairs, size=args.size, seed=args.seed)
    rows = generate_corpus(args.out, spec)
    print(f"pairs={len(rows)} out={args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="density-code",
        description="Encode grayscale images as ordered density codes and "
        "compare them with a transformation-invariant dissimilarity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode an image into a code file")
    p.add_argument("--image", required=True, help="input PGM or PNG")
    p.add_argument(
        "--polarity",
        required=True,
        choices=[pol.value for pol in Polarity],
        help="which intensity extreme is the figure",
    )
    p.add_argument("--points", type=int, default=1025, help="sequence length")
    p.add_argument(
        "--alpha",
        type=float,
        default=None,
        help="mass-proportional code length factor (default: fixed length)",
    )
    p.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=DEFAULT_LAMBDA,
        help="background lift constant (default 0.0001)",
    )
    p.add_argument("--out", required=True, help="output code CSV")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("compare", help="dissimilarity between two code files")
    p.add_argument("code_v", help="source code file")
    p.add_argument("code_w", help="target code file (sets the scale)")
    p.add_argument(
        "--degree",
        type=int,
        required=True,
        help="polynomial degree of the transformation family (0 = direct)",
    )
    p.add_argument(
        "--residuals", default=None, help="optional per-point residual CSV"
    )
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "sweep", help="length-factor sweep over a corpus, related vs unrelated"
    )
    p.add_argument("--corpus", required=True, help="directory with manifest.csv")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--alpha-min", dest="alpha_min", type=float, default=0.01)
    p.add_argument("--alpha-max", dest="alpha_max", type=float, default=0.5)
    p.add_argument("--alpha-step", dest="alpha_step", type=float, default=0.01)
    p.add_argument(
        "--polarity",
        choices=[pol.value for pol in Polarity],
        default=Polarity.LIGHT_ON_DARK.value,
    )
    p.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    p.add_argument(
        "--points",
        type=int,
        default=None,
        help="sequence length (default: longest code the sweep needs)",
    )
    p.add_argument("--out", required=True, help="output CSV of boundary curves")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="time encoding and fit the timing model")
    p.add_argument(
        "mode",
        nargs="?",
        choices=["run", "fit"],
        default="run",
        help="'run' measures a grid, 'fit' regresses a measurement CSV",
    )
    p.add_argument("--out", default=None, help="timing CSV (run mode)")
    p.add_argument("--in", dest="infile", default=None, help="timing CSV (fit mode)")
    p.add_argument("--heights", default=DEFAULT_GRID)
    p.add_argument("--widths", default=DEFAULT_GRID)
    p.add_argument("--lengths", default=DEFAULT_LENGTHS)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen-corpus", help="generate the synthetic test corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--pairs", type=int, default=6)
    p.add_argument("--size", type=int, default=128)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_gen_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> int:
    """Process entry of `density-code` and `python -m densitycode.cli`.

    The objects made before the command runs, and those alive when it
    ends, live until exit. Freezing them keeps the collector from scanning
    them again, during the command and in the full collections of
    interpreter shutdown, which still runs in full (atexit handlers,
    flushing, module teardown). The command's own objects are collected
    as usual. Call main() to run a command in process.
    """
    gc.freeze()
    gc.enable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
