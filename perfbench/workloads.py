"""The benchmark's four workloads: set-up, one timed operation, output checks.

Every workload is a closed loop with a single caller in one process: the
next operation starts when the previous one has returned. A *pass* runs
each of the workload's items once; the timed region repeats passes until
the time is up. Inputs are generated from the workload seed alone, through
densitycode's own corpus generator, so the program sees only files.

Why these four:

- ``cli_cold``: fresh interpreters, where import time dwarfs the work.
- ``encode_batch``: the encode pipeline in-process; no fit runs.
- ``sweep_corpus``: thousands of small fits; per-call matcher cost.
- ``match_large``: a few large, high-degree fits on large coordinates.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import densitycode as dc
import oracles

LAM = 1e-4  # densitycode's default background lift
POLARITY = "light-on-dark"
SAMPLED_POINTS = 24  # code points checked against the scalar reference per code
HERE = Path(__file__).resolve().parent


def write_image(pixels: np.ndarray, path: Path) -> None:
    """Store a figure as 16-bit PGM, scaled the way the corpus generator does."""
    scaled = np.rint(pixels / pixels.max() * 65535.0)
    dc.write_pgm(scaled, path, maxval=65535, binary=True)


def read_image(path: Path) -> np.ndarray:
    """Raw samples of a binary 16-bit PGM written by :func:`write_image`."""
    data = Path(path).read_bytes()
    magic, dims, maxval, raster = data.split(b"\n", 3)
    width, height = (int(t) for t in dims.split())
    if magic != b"P5" or int(maxval) != 65535:
        raise ValueError(f"{path}: not a 16-bit binary PGM")
    return np.frombuffer(raster, dtype=">u2", count=width * height).reshape(height, width).astype(np.float64)


def encode_image(path: Path, m: int, alpha: float | None = None, out: Path | None = None):
    """The CLI's encode pipeline through the public functions.

    Functions are looked up on the package at call time, so a tracer
    installed on the package sees every call.
    """
    img = dc.load_image(path)
    nimg = dc.normalize(img, dc.Polarity(POLARITY))
    fld = dc.make_density_field(nimg, LAM)
    seq = dc.halton(m, 2)
    code = dc.encode(fld, seq, dc.EncodeParams(lam=LAM, alpha=alpha))
    if out is not None:
        dc.write_code_csv(code, out)
    return seq, code


def sample_indices(m: int, seed: int) -> list[int]:
    rng = np.random.default_rng([seed, m])
    picks = rng.choice(m, size=min(m, SAMPLED_POINTS), replace=False)
    return sorted({0, m - 1, *(int(j) for j in picks)})


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    """One workload: ``setup`` builds inputs, ``run`` is the timed operation.

    ``fingerprint`` summarizes an output so repeated operations can be
    compared for determinism; ``check`` runs the oracles on the last output
    of every item and returns mismatch messages per item.
    """

    name = ""
    throughput_name = "ops_per_s"
    host_kernel = "mixed"  # the hostspeed kernel that scales the timed passes

    def setup(self, seed: int, work: Path):
        raise NotImplementedError

    def items(self, inputs) -> list[str]:
        raise NotImplementedError

    def run(self, inputs, item: str, child_summaries: list | None = None):
        raise NotImplementedError

    def fingerprint(self, output) -> str:
        raise NotImplementedError

    def check(self, inputs, outputs: dict) -> dict[str, list[str]]:
        raise NotImplementedError

    def known_defects(self, inputs, outputs: dict) -> dict[str, list[str]]:
        """Oracle mismatches the program is known to have today, per item.

        They are printed and counted on their own, not as failures, so a
        defect that predates the benchmark stays visible without making
        every run incorrect. A fix brings their count to zero.
        """
        return {}

    def default_blas_ms(self, inputs, work: Path) -> float:
        """Diagnostic: one pass of the workload's fits under default BLAS threads."""
        return 0.0

    def named_metrics(self, samples: dict[str, list[float]]):
        """The workload's own latency figures: (stem, seconds, unit, qualifier).

        Each row is printed as ``<stem>_p50_<unit><qualifier>`` and a tail
        percentile, with its sample count.
        """
        raise NotImplementedError


def cli_env() -> dict:
    """Environment for CLI children: the package on the path, BLAS pinned."""
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class CliInputs:
    image: Path
    code_a: Path
    code_b: Path
    out: Path
    seed: int
    env: dict = field(default_factory=cli_env)


class CliCold(Workload):
    name = "cli_cold"
    throughput_name = "cli_commands_per_s"
    host_kernel = "interpreter"

    def setup(self, seed, work):
        corpus_dir = work / "corpus"
        dc.generate_corpus(corpus_dir, dc.CorpusSpec(pair_count=2, size=256, seed=seed))
        codes = []
        for side in "AB":
            path = work / f"code_{side}.csv"
            encode_image(corpus_dir / f"pair0_{side}.pgm", 1025, out=path)
            codes.append(path)
        return CliInputs(corpus_dir / "pair0_A.pgm", codes[0], codes[1], work / "encoded.csv", seed)

    def items(self, inputs):
        return ["encode", "compare"]

    def argv(self, inputs, item):
        if item == "encode":
            return ["encode", "--image", str(inputs.image), "--polarity", POLARITY,
                    "--points", "1025", "--out", str(inputs.out)]
        return ["compare", str(inputs.code_a), str(inputs.code_b), "--degree", "3"]

    def run(self, inputs, item, child_summaries=None):
        if child_summaries is None:
            cmd = [sys.executable, "-m", "densitycode.cli", *self.argv(inputs, item)]
        else:
            summary_path = inputs.out.with_name("child_summary.json")
            cmd = [sys.executable, str(HERE / "child.py"), "cli", str(summary_path),
                   *self.argv(inputs, item)]
        proc = subprocess.run(cmd, env=inputs.env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        if child_summaries is not None:
            child_summaries.append(json.loads(summary_path.read_text()))
        if item == "encode":
            return inputs.out.read_bytes()
        return proc.stdout

    def fingerprint(self, output):
        return digest(output) if isinstance(output, bytes) else output

    def check(self, inputs, outputs):
        problems = {}
        text = outputs["encode"].decode()
        _, points = oracles.parse_code_csv(text)
        found = oracles.check_encode(points, read_image(inputs.image), LAM,
                                     sample_indices(points.shape[0], inputs.seed))
        if outputs["encode"] != inputs.code_a.read_bytes():
            found.append("CLI encode output differs from the library's encode of the same image")
        problems["encode"] = found
        _, va = oracles.parse_code_csv(inputs.code_a.read_text())
        _, vb = oracles.parse_code_csv(inputs.code_b.read_text())
        line = outputs["compare"].strip()
        if not line.startswith("delta="):
            problems["compare"] = [f"unexpected compare output {line[:80]!r}"]
        else:
            problems["compare"] = oracles.check_match(float(line[6:]), va, vb, 3)
        return problems

    def named_metrics(self, samples):
        return [("cli_encode", samples["encode"], "s", ""),
                ("cli_compare", samples["compare"], "s", "")]


@dataclass
class BatchInputs:
    images: dict[str, Path]
    plan: dict[str, tuple[str, int, float | None]]  # item -> (image, m, alpha)
    work: Path
    seed: int


class EncodeBatch(Workload):
    name = "encode_batch"
    throughput_name = "encode_images_per_s"

    def setup(self, seed, work):
        images = {}
        for k, size in enumerate((128, 512, 1024)):
            images[f"{size}x{size}"] = dc.generate_figure([seed, k], size).pixels
        # every fourth row of a fresh 1024^2 figure: a whole, squashed plant
        images["256x1024"] = dc.generate_figure([seed, 3], 1024).pixels[::4]
        paths = {}
        for key, pixels in images.items():
            paths[key] = work / f"img_{key}.pgm"
            write_image(pixels, paths[key])
        plan = {f"{key}/m{m}": (key, m, None) for key in paths for m in (1025, 16385)}
        plan["512x512/m16385/alpha0.25"] = ("512x512", 16385, 0.25)
        return BatchInputs(paths, plan, work, seed)

    def items(self, inputs):
        return list(inputs.plan)

    def out_path(self, inputs, item):
        return inputs.work / (item.replace("/", "_") + ".csv")

    def run(self, inputs, item, child_summaries=None):
        key, m, alpha = inputs.plan[item]
        return encode_image(inputs.images[key], m, alpha, self.out_path(inputs, item))

    def fingerprint(self, output):
        return digest(output[1].points.tobytes())

    def check(self, inputs, outputs):
        problems = {}
        for item, (seq, code) in outputs.items():
            key, m, alpha = inputs.plan[item]
            pts = code.points
            idx = sample_indices(pts.shape[0], inputs.seed)
            found = oracles.check_halton(seq.points, seq.bases, idx)
            found += oracles.check_encode(pts, read_image(inputs.images[key]), LAM, idx)
            found += oracles.check_code_file(self.out_path(inputs, item).read_text(), pts)
            if alpha is not None:
                full = outputs[f"{key}/m{m}"][1].points
                found += oracles.check_prefix(pts, full)
            problems[item] = found
        return problems

    def named_metrics(self, samples):
        rows = [("encode", values, "ms", f"[{item}]") for item, values in samples.items()]
        rows.append(("encode", [v for vs in samples.values() for v in vs], "ms", ""))
        return rows


@dataclass
class SweepInputs:
    corpora: dict[str, Path]  # item -> corpus directory
    work: Path
    seed: int


class SweepCorpus(Workload):
    name = "sweep_corpus"
    throughput_name = "sweeps_per_s"
    ALPHA_MIN, ALPHA_MAX, ALPHA_STEP, DEGREE = 0.01, 0.5, 0.01, 3  # the CLI defaults
    # A corpus's figure mass sets its sweep's work, and it varies by seed by
    # about a tenth; a pass sweeps several corpora so one seed's draw weighs
    # less, and each sweep is short so that a run times many of them.
    CORPORA, PAIRS = 6, 4

    def setup(self, seed, work):
        corpora = {}
        for c in range(self.CORPORA):
            corpora[f"corpus{c}"] = work / f"corpus{c}"
            spec = dc.CorpusSpec(pair_count=self.PAIRS, size=128, seed=seed * self.CORPORA + c)
            dc.generate_corpus(corpora[f"corpus{c}"], spec)
        return SweepInputs(corpora, work, seed)

    def items(self, inputs):
        return list(inputs.corpora)

    def run(self, inputs, item, child_summaries=None):
        from densitycode import cli

        out = inputs.work / f"sweep_{item}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["sweep", "--corpus", str(inputs.corpora[item]), "--out", str(out)])
        if status != 0:
            raise RuntimeError(f"sweep returned {status}")
        return out.read_text()

    def fingerprint(self, output):
        return digest(output.encode())

    def check(self, inputs, outputs):
        problems = {}
        n_alphas = round((self.ALPHA_MAX - self.ALPHA_MIN) / self.ALPHA_STEP) + 1
        for item, text in outputs.items():
            rows = list(csv.DictReader(io.StringIO(text)))
            found = [] if len(rows) == n_alphas else [f"{len(rows)} rows, expected {n_alphas}"]
            found += oracles.check_sweep(rows, self.ALPHA_STEP)
            found += self.check_prefixes_and_rows(inputs.corpora[item], rows)
            problems[item] = found
        return problems

    def check_prefixes_and_rows(self, corpus: Path, rows):
        """Prefix law against re-encodes, and three rows recomputed from prefixes."""
        with open(corpus / "manifest.csv", newline="") as fh:
            manifest = list(csv.DictReader(fh))
        entries = []
        for row in manifest:
            for key in ("file_a", "file_b"):
                img = dc.load_image(corpus / row[key])
                fld = dc.make_density_field(dc.normalize(img, dc.Polarity(POLARITY)), LAM)
                entries.append((int(row["pair"]), fld))
        masses = [fld.foreground_mass for _, fld in entries]
        seq_len = max(dc.code_length(mass, self.ALPHA_MAX, 10**9) for mass in masses)
        seq = dc.halton(seq_len, 2)
        full = [dc.encode(fld, seq, dc.EncodeParams(lam=LAM, alpha=self.ALPHA_MAX)).points
                for _, fld in entries]
        found = []
        for (_, fld), mass, pts in zip(entries, masses, full):
            short_m = dc.code_length(mass, self.ALPHA_MAX / 2, seq_len)
            short = dc.encode(fld, dc.halton(short_m, 2), dc.EncodeParams(lam=LAM)).points
            found += oracles.check_prefix(short, pts)
        ok_rows = [r for r in rows if r["status"] == "ok"]
        for row in ok_rows[:: max(1, len(ok_rows) // 3)][:3]:
            alpha = float(row["alpha"])
            lengths = [min(dc.code_length(mass, alpha, seq_len), p.shape[0]) for mass, p in zip(masses, full)]
            bands = {True: [], False: []}
            for i, (pair_i, _) in enumerate(entries):
                for j, (pair_j, _) in enumerate(entries):
                    if i != j:
                        delta = dc.delta_median(full[i][: lengths[i]], full[j][: lengths[j]], self.DEGREE).delta
                        bands[pair_i == pair_j].append(delta)
            want = (min(bands[True]), max(bands[True]), min(bands[False]), max(bands[False]))
            got = tuple(float(row[k]) for k in ("related_min", "related_max", "unrelated_min", "unrelated_max"))
            if any(abs(g - w) > 1e-12 * abs(w) for g, w in zip(got, want)):
                found.append(f"alpha={row['alpha']}: row {got} differs from recomputed {want}")
        return found

    def named_metrics(self, samples):
        return [("sweep", [v for vs in samples.values() for v in vs], "s", "")]


@dataclass
class MatchInputs:
    codes: dict[str, np.ndarray]  # "0A", "0B", "1A", "1B" -> (4097, 2) points
    plan: dict[str, tuple[str, str, int]]  # item -> (source, target, degree)


class MatchLarge(Workload):
    """Large fits on 1024² pixel coordinates.

    Every fit is timed and every fit's delta must follow from its residuals
    and the target's scale. Only the degrees in ``CHECKED_DEGREES`` are
    also held to the [-1, 1]-mapped reference fit and to the nesting law:
    above them, the matcher's raw monomial basis is too ill-conditioned
    for 1e-6 (ROADMAP, "Well-conditioned, thread-proof matcher"). Their
    mismatches are reported by :meth:`known_defects`, not counted as failed.
    """

    name = "match_large"
    throughput_name = "matches_per_s"
    host_kernel = "large_fit"
    DEGREES = (1, 2, 3, 5, 7)
    CHECKED_DEGREES = (1, 2)

    def setup(self, seed, work):
        corpus_dir = work / "corpus"
        dc.generate_corpus(corpus_dir, dc.CorpusSpec(pair_count=2, size=1024, seed=seed))
        codes = {}
        for k in range(2):
            for side in "AB":
                _, code = encode_image(corpus_dir / f"pair{k}_{side}.pgm", 4097)
                codes[f"{k}{side}"] = code.points
        plan = {}
        for k in range(2):
            for src, dst in (("A", "B"), ("B", "A")):
                for d in self.DEGREES:
                    plan[f"{k}{src}->{k}{dst}/d{d}"] = (f"{k}{src}", f"{k}{dst}", d)
        return MatchInputs(codes, plan)

    def items(self, inputs):
        return list(inputs.plan)

    def run(self, inputs, item, child_summaries=None):
        src, dst, d = inputs.plan[item]
        return dc.delta_median(inputs.codes[src], inputs.codes[dst], d)

    def fingerprint(self, output):
        return repr(output.delta)

    def reference_problems(self, inputs, outputs):
        """Per item: mismatches against the reference fit and the nesting law."""
        problems = {}
        sse = {}
        for item, report in outputs.items():
            src, dst, d = inputs.plan[item]
            problems[item] = oracles.check_match(report.delta, inputs.codes[src], inputs.codes[dst], d)
            sse.setdefault((src, dst), {})[d] = float((report.residuals**2).sum())
        for (src, dst), by_degree in sse.items():
            for d, message in oracles.check_nested(by_degree).items():
                problems[f"{src}->{dst}/d{d}"].append(message)
        return problems

    def check(self, inputs, outputs):
        problems = {}
        for item, found in self.reference_problems(inputs, outputs).items():
            src, dst, d = inputs.plan[item]
            report = outputs[item]
            problems[item] = oracles.check_report(report.delta, report.residuals, report.target_scale,
                                                  inputs.codes[src], inputs.codes[dst])
            if d in self.CHECKED_DEGREES:
                problems[item] += found
        return problems

    def known_defects(self, inputs, outputs):
        return {item: found for item, found in self.reference_problems(inputs, outputs).items()
                if inputs.plan[item][2] not in self.CHECKED_DEGREES}

    def default_blas_ms(self, inputs, work):
        """Sum of per-fit medians in a child that leaves BLAS threading at its default."""
        items = [{"name": item, "source": src, "target": dst, "degree": d}
                 for item, (src, dst, d) in inputs.plan.items()]
        npz = work / "codes.npz"
        np.savez(npz, items=json.dumps(items), **inputs.codes)
        env = {k: v for k, v in cli_env().items() if not k.endswith("_NUM_THREADS")}
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), "fits", str(npz), "5"],
                              env=env, capture_output=True, text=True, check=True)
        return sum(json.loads(proc.stdout.splitlines()[-1]).values())

    def named_metrics(self, samples):
        rows = []
        for d in self.DEGREES:
            values = [v for item, vs in samples.items() if item.endswith(f"/d{d}") for v in vs]
            rows.append(("match", values, "ms", f"[d={d}]"))
        return rows


WORKLOADS = {w.name: w for w in (CliCold(), EncodeBatch(), SweepCorpus(), MatchLarge())}
