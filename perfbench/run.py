"""densitycode benchmark: four workloads, checked outputs, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload match_large --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
reruns the workload half untraced and half traced and reports per-layer
metrics plus the tracing overhead. ``--workload all`` runs every workload
in turn. ``--write-spec`` rewrites BENCHMARK.json from the tables below.
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print the
environment and each workload's own figures with units and sample counts.
"""

from __future__ import annotations

import os

# BLAS threading moves one fit by 20-100x on a small host; pin it before
# numpy loads. Children inherit the setting through the environment.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"
for _var in ("DC_LAMBDA", "DC_SEED"):  # the CLI reads these; inputs must not
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPS = 3
SETUP_PROBES = 5  # host-speed kernel runs before and after each set-up
RUN_SECONDS = 15

WORKLOADS = {
    "cli_cold": "fresh-interpreter encode (256^2, m=1025) and compare (d=3), alternating: import time dominates",
    "encode_batch": "in-process encode pipeline over 128^2..1024^2 and 256x1024 images at m=1025/16385; no fits",
    "sweep_corpus": "in-process CLI sweeps of six seeded 4-pair 128^2 corpora, ~2,800 small fits each: per-call matcher cost dominates",
    "match_large": "delta_median on 1024^2 pairs at m=4097, d=1,2,3,5,7: few large fits on large coordinates",
}

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "batch_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

# (name, unit, better); values are per timed pass unless the name says otherwise
PER_LAYER = [
    ("cli.interp_start_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.import_scipy_ms", "ms", "lower"),
    ("cli.main_ms", "ms", "lower"),
    ("quasirandom.halton.ms", "ms", "lower"),
    ("quasirandom.halton.points", "count", "higher"),
    ("quasirandom.halton.us_per_point", "us", "lower"),
    ("image_io.load_image.ms", "ms", "lower"),
    ("image_io.load_image.bytes", "bytes", "lower"),
    ("image_io.normalize.ms", "ms", "lower"),
    ("image_io.make_density_field.ms", "ms", "lower"),
    ("image_io.ns_per_pixel", "ns", "lower"),
    ("encoder.encode.ms", "ms", "lower"),
    ("encoder.encode.points", "count", "higher"),
    ("encoder.encode.us_per_point", "us", "lower"),
    ("encoder.write_code_csv.ms", "ms", "lower"),
    ("encoder.write_code_csv.bytes", "bytes", "lower"),
    ("encoder.read_code_csv.ms", "ms", "lower"),
    ("matcher.delta_median.calls", "count", "lower"),
    ("matcher.delta_median.self_ms", "ms", "lower"),
    ("matcher.basis_matrix.ms", "ms", "lower"),
    ("matcher.basis_matrix.cells", "count", "lower"),
    ("matcher.least_squares_fit.ms", "ms", "lower"),
    ("matcher.least_squares_fit.calls", "count", "lower"),
    ("matcher.all_powers.calls", "count", "lower"),
    ("matcher.basis_reuse_ratio", "ratio", "higher"),
    ("matcher.fit_default_blas_ms", "ms", "lower"),
    ("matcher.known_defect_ratio", "ratio", "lower"),
    ("corpus.generate_corpus.ms", "ms", "lower"),
    ("corpus.generate_figure.ms", "ms", "lower"),
    ("corpus.warp_image.ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def tail(values: list[float]) -> tuple[int, float] | None:
    """p90 if ten samples lie beyond it, else the highest percentile that has ten."""
    n = len(values)
    pct = min(90, math.floor(100 * (1 - 10 / n))) if n else 0
    if pct < 50:
        return None
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


@dataclass
class Phase:
    """What one stretch of timed passes produced."""

    speed: object  # hostspeed.HostSpeed marks taken during the phase
    spans: dict = field(default_factory=lambda: defaultdict(list))  # item -> (start, end)
    digests: dict = field(default_factory=lambda: defaultdict(list))  # item -> fingerprints
    errors: dict = field(default_factory=lambda: defaultdict(list))  # item -> messages
    outputs: dict = field(default_factory=dict)  # item -> last output
    summaries: list = field(default_factory=list)  # one trace summary per traced pass
    passes: int = 0

    def measured(self) -> dict[str, list[float]]:
        """Wall seconds of every successful operation, per item."""
        return {item: [end - start for start, end in v] for item, v in self.spans.items()}

    def normalized(self) -> dict[str, list[float]]:
        """The same, rescaled to the reference host speed (see hostspeed)."""
        factor = self.speed.factor()
        return {item: [t * factor for t in v] for item, v in self.measured().items()}

    def batch_ms(self, samples=None) -> float:
        """One pass: the sum over items of each item's median, normalized by default."""
        samples = self.normalized() if samples is None else samples
        return sum(statistics.median(v) for v in samples.values()) * 1e3


def run_passes(workload, inputs, seconds: float, traced: bool) -> Phase:
    """Repeat whole passes over the workload's items until `seconds` elapse."""
    import hostspeed
    import tracing

    probe, ref_seconds, interval = hostspeed.KERNELS[workload.host_kernel]
    phase = Phase(hostspeed.HostSpeed(interval, probe=probe, ref_seconds=ref_seconds))
    items = workload.items(inputs)
    deadline = time.perf_counter() + seconds
    while phase.passes == 0 or time.perf_counter() < deadline:
        tracer = tracing.Tracer() if traced else None
        children = [] if traced else None
        if tracer:
            tracer.install(tracing.densitycode_targets())
        try:
            for item in items:
                phase.speed.mark_if_due()
                t0 = time.perf_counter()
                try:
                    out = workload.run(inputs, item, children)
                except Exception as exc:  # a failed operation is counted, not fatal
                    phase.errors[item].append(f"{type(exc).__name__}: {exc}")
                    continue
                phase.spans[item].append((t0, time.perf_counter()))
                phase.digests[item].append(workload.fingerprint(out))
                phase.outputs[item] = out
        finally:
            if tracer:
                tracer.uninstall()
                phase.summaries.append(tracing.merge_summaries([tracer.summary(), *children]))
        phase.passes += 1
    phase.speed.mark()
    return phase


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def repeated_setup(workload, seed: int, work: Path, reps: int):
    """Set up `reps` times from the same seed; the inputs must be identical.

    Returns the normalized set-up seconds, the last inputs and any problems.
    """
    import hostspeed

    speed = hostspeed.HostSpeed()
    times, digests, inputs = [], [], None
    for r in range(reps):
        target = work / f"setup{r}"
        target.mkdir()
        speed.mark(SETUP_PROBES)
        t0 = time.perf_counter()
        inputs = workload.setup(seed, target)
        t1 = time.perf_counter()
        speed.mark(SETUP_PROBES)
        times.append(t1 - t0)
        digests.append(tree_digest(target))
    problems = [f"set-up {r} produced different inputs" for r, d in enumerate(digests) if d != digests[0]]
    return [t * speed.factor() for t in times], inputs, problems


def verdicts(workload, inputs, phases: list[Phase]):
    """Attempted and failed operations, and the mismatch messages.

    An operation fails when it raised, when its output differs from the
    last output of the same item, or when that last output fails an oracle.
    """
    outputs = {}
    for phase in phases:
        outputs.update(phase.outputs)
    items = workload.items(inputs)
    missing = [item for item in items if item not in outputs]
    if missing:
        problems = {item: ["no successful operation; oracles not run"] for item in items}
    else:
        try:
            problems = workload.check(inputs, outputs)
        except Exception as exc:  # a malformed output must not abort the report
            problems = {item: [f"oracle raised {type(exc).__name__}: {exc}"] for item in items}
    attempted = failed = 0
    for item in items:
        digests = [d for p in phases for d in p.digests[item]]
        errors = [e for p in phases for e in p.errors[item]]
        attempted += len(digests) + len(errors)
        if problems.get(item):
            failed += len(digests) + len(errors)
        else:
            last = workload.fingerprint(outputs[item])
            failed += len(errors) + sum(d != last for d in digests)
        problems.setdefault(item, [])
        problems[item] = errors[:3] + problems[item]
    return attempted, failed, problems


def known_defects(workload, inputs, phases: list[Phase]):
    """Operations whose item shows a known, not yet fixed, oracle mismatch."""
    outputs = {}
    for phase in phases:
        outputs.update(phase.outputs)
    if any(item not in outputs for item in workload.items(inputs)):
        return 0, {}
    try:
        found = workload.known_defects(inputs, outputs)
    except Exception as exc:  # a malformed output must not abort the report
        found = {item: [f"oracle raised {type(exc).__name__}: {exc}"] for item in outputs}
    found = {item: messages for item, messages in found.items() if messages}
    count = sum(len(p.digests[item]) for p in phases for item in found)
    return count, found


def cli_probes(repeats: int = 3) -> dict:
    """Cold interpreter start, and the import of densitycode.cli by -X importtime."""
    import tracing
    import workloads

    env = workloads.cli_env()
    starts, imports, scipys = [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        starts.append((time.perf_counter() - t0) * 1e3)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import densitycode.cli"],
                              env=env, capture_output=True, text=True, check=True)
        total, scipy_ms = tracing.parse_importtime(proc.stderr)
        imports.append(total)
        scipys.append(scipy_ms)
    return {
        "cli.interp_start_ms": statistics.median(starts),
        "cli.import_ms": statistics.median(imports),
        "cli.import_scipy_ms": statistics.median(scipys),
    }


def layer_metrics(traced: Phase, setup_summary: dict) -> dict:
    """Per-layer figures per timed pass; corpus figures per set-up."""
    import tracing

    merged = tracing.merge_summaries(traced.summaries)
    spans, counts, distinct = merged["spans"], merged["counts"], merged["distinct"]
    n = traced.passes

    def ms(name, key="ms"):
        return spans.get(name, {}).get(key, 0.0) / n

    def calls(name):
        return spans.get(name, {}).get("calls", 0) / n

    def count(name):
        return counts.get(name, 0.0) / n

    def ratio(a, b):
        return a / b if b else 0.0

    io_ms = ms("image_io.load_image") + ms("image_io.normalize") + ms("image_io.make_density_field")
    setup_spans = setup_summary["spans"]
    return {
        "cli.main_ms": ms("cli.main"),
        "quasirandom.halton.ms": ms("quasirandom.halton"),
        "quasirandom.halton.points": count("quasirandom.halton.points"),
        "quasirandom.halton.us_per_point": ratio(ms("quasirandom.halton") * 1e3, count("quasirandom.halton.points")),
        "image_io.load_image.ms": ms("image_io.load_image"),
        "image_io.load_image.bytes": count("image_io.load_image.bytes"),
        "image_io.normalize.ms": ms("image_io.normalize"),
        "image_io.make_density_field.ms": ms("image_io.make_density_field"),
        "image_io.ns_per_pixel": ratio(io_ms * 1e6, count("image_io.make_density_field.pixels")),
        "encoder.encode.ms": ms("encoder.encode"),
        "encoder.encode.points": count("encoder.encode.points"),
        "encoder.encode.us_per_point": ratio(ms("encoder.encode") * 1e3, count("encoder.encode.points")),
        "encoder.write_code_csv.ms": ms("encoder.write_code_csv"),
        "encoder.write_code_csv.bytes": count("encoder.write_code_csv.bytes"),
        "encoder.read_code_csv.ms": ms("encoder.read_code_csv"),
        "matcher.delta_median.calls": calls("matcher.delta_median"),
        "matcher.delta_median.self_ms": ms("matcher.delta_median", "self_ms"),
        "matcher.basis_matrix.ms": ms("matcher.basis_matrix"),
        "matcher.basis_matrix.cells": count("matcher.basis_matrix.cells"),
        "matcher.least_squares_fit.ms": ms("matcher.least_squares_fit"),
        "matcher.least_squares_fit.calls": calls("matcher.least_squares_fit"),
        "matcher.all_powers.calls": calls("matcher.all_powers"),
        "matcher.basis_reuse_ratio": ratio(distinct.get("matcher.basis_matrix.bases", 0), calls("matcher.basis_matrix") * n),
        "corpus.generate_corpus.ms": setup_spans.get("corpus.generate_corpus", {}).get("ms", 0.0),
        "corpus.generate_figure.ms": setup_spans.get("corpus.generate_figure", {}).get("ms", 0.0),
        "corpus.warp_image.ms": setup_spans.get("corpus.warp_image", {}).get("ms", 0.0),
    }


def peak_rss_mb(workload) -> float:
    """Largest resident set of the process doing the work (children for the CLI)."""
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "workload": workload,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pillow": importlib.util.find_spec("PIL") is not None,
        "commit": commit,
        "src_sha256": tree_digest(SRC / "densitycode"),
    }


def print_row(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}".rstrip())


def print_latencies(workload, phase: Phase) -> None:
    """The workload's own latency figures, as measured (not normalized)."""
    measured = phase.measured()
    for stem, values, unit, qualifier in workload.named_metrics(measured):
        scale = 1.0 if unit == "s" else 1e3
        n = len(values)
        if not n:
            continue
        print_row(f"{stem}_p50_{unit}{qualifier}", statistics.median(values) * scale, unit, f"n={n}")
        t = tail(values)
        if t is None:
            print(f"  {stem}_p90_{unit}{qualifier:<30} {'n/a':>14} {unit:<6} n={n}: <20 samples")
        else:
            label = "p90" if t[0] == 90 else f"p90 -> p{t[0]}"
            print_row(f"{stem}_p90_{unit}{qualifier}", t[1] * scale, unit, f"n={n} ({label})")
    ops = sum(len(v) for v in measured.values())
    busy = sum(sum(v) for v in measured.values())
    print_row(workload.throughput_name, ops / busy if busy else 0.0, "1/s", f"n={ops}")


def print_host_speed(phase: Phase) -> None:
    kernel_ms = [t * 1e3 for t in phase.speed.seconds]
    print_row("host_kernel_ms", statistics.median(kernel_ms), "ms",
              f"n={len(kernel_ms)}, normalized to {phase.speed.ref_seconds * 1e3:g} ms")


def measure(workload, seed: int, seconds: float, work: Path) -> dict:
    """Untraced run: set-up several times, then timed passes and the oracles."""
    setup_times, inputs, setup_problems = repeated_setup(workload, seed, work, SETUP_REPS)
    phase = run_passes(workload, inputs, seconds, traced=False)
    attempted, failed, problems = verdicts(workload, inputs, [phase])
    known, known_messages = known_defects(workload, inputs, [phase])
    attempted += SETUP_REPS
    failed += len(setup_problems)
    problems["setup"] = setup_problems
    metrics = {
        "setup_s": statistics.median(setup_times),
        "batch_ms": phase.batch_ms(),
        "peak_rss_mb": peak_rss_mb(workload),
    }
    print_row("setup_s", metrics["setup_s"], "s", f"n={SETUP_REPS} (median, normalized)")
    print_row("batch_ms", metrics["batch_ms"], "ms", f"passes={phase.passes} (sum of item medians, normalized)")
    print_row("batch_ms (as measured)", phase.batch_ms(phase.measured()), "ms", "host speed not factored out")
    print_latencies(workload, phase)
    print_row("peak_rss_mb", metrics["peak_rss_mb"], "MB")
    print_host_speed(phase)
    print_known(known, attempted, known_messages)
    return finish(attempted, failed, problems, metrics, {m["name"]: m["unit"] for m in END_TO_END})


def measure_traced(workload, seed: int, seconds: float, work: Path) -> dict:
    """Half the time untraced, half traced; per-layer metrics from the traced half."""
    import tracing

    target = work / "setup0"
    target.mkdir()
    with tracing.Tracer() as tracer:
        tracer.install(tracing.densitycode_targets())
        inputs = workload.setup(seed, target)
    setup_summary = tracer.summary()
    plain = run_passes(workload, inputs, seconds / 2, traced=False)
    traced = run_passes(workload, inputs, seconds / 2, traced=True)
    attempted, failed, problems = verdicts(workload, inputs, [plain, traced])
    known, known_messages = known_defects(workload, inputs, [plain, traced])
    metrics = layer_metrics(traced, setup_summary)
    metrics["matcher.known_defect_ratio"] = known / attempted
    metrics.update(cli_probes())
    metrics["matcher.fit_default_blas_ms"] = workload.default_blas_ms(inputs, work)
    overhead = traced.batch_ms() - plain.batch_ms()
    metrics["trace.overhead_ms"] = overhead
    metrics["trace.overhead_pct"] = 100.0 * overhead / plain.batch_ms()
    print_row("batch_ms (untraced)", plain.batch_ms(), "ms", f"passes={plain.passes}")
    print_row("batch_ms (traced)", traced.batch_ms(), "ms", f"passes={traced.passes}")
    print_host_speed(traced)
    units = {name: unit for name, unit, _ in PER_LAYER}
    for name, unit, _ in PER_LAYER:
        print_row(name, metrics[name], unit)
    print_known(known, attempted, known_messages)
    return finish(attempted, failed, problems, metrics, units)


def print_known(known: int, attempted: int, messages: dict) -> None:
    """Known defects are reported beside failed_ratio but not counted in it."""
    print_row("known_defect_ratio", known / attempted, "ratio", f"{known} of {attempted}, not counted as failed")
    for item, found in messages.items():
        for message in found[:3]:
            print(f"  KNOWN DEFECT {item}: {message}")


def finish(attempted, failed, problems, metrics, units) -> dict:
    print_row("failed_ratio", failed / attempted if attempted else 1.0, "ratio", f"{failed} of {attempted}")
    for item, messages in problems.items():
        for message in messages[:3]:
            print(f"  FAIL {item}: {message}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    workload = workloads.WORKLOADS[name]
    work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    print(f"{name} seed={seed} seconds={seconds} trace={int(trace)}")
    print("env " + json.dumps(environment(name, seed), sort_keys=True))
    try:
        if trace:
            return measure_traced(workload, seed, seconds, work)
        return measure(workload, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "densitycode" / "__init__.py").is_file():
        print(f"error: densitycode sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
