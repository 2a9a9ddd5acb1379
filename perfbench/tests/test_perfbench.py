"""Tests of the benchmark itself: inputs, tracing, oracles and bookkeeping.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import sys
import types

import numpy as np
import pytest

import hostspeed
import oracles
import run
import tracing
import workloads

import densitycode as dc


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    digests = []
    for seed, label in ((5, "a"), (5, "b"), (6, "c")):
        target = tmp_path / label
        target.mkdir()
        inputs = workload.setup(seed, target)
        digests.append(run.tree_digest(target))
        if name == "match_large":
            digests[-1] += "".join(workloads.digest(p.tobytes()) for p in inputs.codes.values())
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")

    def inner(x):
        return x + 1

    def outer(x):
        return pkg.inner(x) + pkg.inner(x)

    pkg.inner, pkg.outer = inner, outer
    user = types.ModuleType("fakepkg.user")
    user.inner = inner  # as bound by ``from fakepkg import inner``
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.user", user)
    return pkg, user


def test_spans_nest_and_self_times_sum_to_parent(fake_package):
    pkg, user = fake_package
    tracer = tracing.Tracer(clock=FakeClock())
    tracer.install([(pkg, "outer", "outer", None), (pkg, "inner", "inner", lambda a, k, r: {"n": 1})],
                   package="fakepkg")
    assert pkg.outer(1) == 4
    user.inner(0)
    tracer.uninstall()
    assert pkg.inner(1) == 2 and user.inner.__name__ == "inner" and not hasattr(user.inner, "__wrapped__")

    spans = tracer.spans
    assert [s.name for s in spans] == ["outer", "inner", "inner", "inner"]
    assert [s.parent for s in spans] == [None, 0, 0, None]
    selfs = tracer.self_times()
    children = sum(s.duration for s in spans if s.parent == 0)
    assert selfs[0] == spans[0].duration - children
    assert selfs[0] + selfs[1] + selfs[2] == spans[0].duration
    summary = tracer.summary()
    assert summary["spans"]["inner"]["calls"] == 3
    assert summary["counts"]["inner.n"] == 3


def test_merge_summaries_adds_processes():
    a = {"spans": {"x": {"calls": 1, "ms": 2.0, "self_ms": 1.0}}, "counts": {"x.n": 3}, "distinct": {"x.k": 1}}
    merged = tracing.merge_summaries([a, a])
    assert merged["spans"]["x"] == {"calls": 2, "ms": 4.0, "self_ms": 2.0}
    assert merged["counts"]["x.n"] == 6 and merged["distinct"]["x.k"] == 2


def test_parse_importtime_totals_package_and_scipy():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 | site",
        "import time:       300 |        300 |       scipy.linalg",
        "import time:       100 |        400 |     scipy",
        "import time:        50 |         50 |     numpy",
        "import time:        20 |        470 |   densitycode.matcher",
        "import time:         5 |        475 | densitycode",
        "import time:         7 |          7 | densitycode.cli",
    ])
    assert tracing.parse_importtime(text) == (482 / 1e3, 400 / 1e3)


def test_halton_oracle_flags_a_perturbed_point():
    seq = dc.halton(300, 2)
    idx = [0, 7, 150, 299]
    assert oracles.check_halton(seq.points, seq.bases, idx) == []
    bad = seq.points.copy()
    bad[150, 1] = np.nextafter(bad[150, 1], 1.0)
    assert oracles.check_halton(bad, seq.bases, idx)


@pytest.fixture(scope="module")
def small_code():
    rng = np.random.default_rng(3)
    pixels = rng.integers(0, 65535, size=(48, 64)).astype(float)
    field = dc.make_density_field(dc.normalize(dc.GrayImage(pixels), dc.Polarity.LIGHT_ON_DARK), 1e-4)
    return pixels, dc.encode(field, dc.halton(400, 2)).points


def test_encode_oracle_flags_a_perturbed_point(small_code):
    pixels, points = small_code
    idx = workloads.sample_indices(points.shape[0], 1)
    assert oracles.check_encode(points, pixels, 1e-4, idx) == []
    bad = points.copy()
    bad[idx[3], 0] += 1e-6
    assert oracles.check_encode(bad, pixels, 1e-4, idx)


def test_prefix_and_code_file_oracles_flag_perturbations(small_code, tmp_path):
    _, points = small_code
    assert oracles.check_prefix(points[:100], points) == []
    bad = points[:100].copy()
    bad[99, 1] += 1e-12
    assert oracles.check_prefix(bad, points)

    code = dc.DensityCode(points=points, sx=64, sy=48, lam=1e-4, alpha=None, polarity="light-on-dark")
    dc.write_code_csv(code, tmp_path / "c.csv")
    text = (tmp_path / "c.csv").read_text()
    assert oracles.check_code_file(text, points) == []
    lines = text.splitlines()
    x, y = lines[5].split(",")
    lines[5] = f"{float(x) + 1e-9!r},{y}"
    assert oracles.check_code_file("\n".join(lines), points)


def test_match_oracles_flag_perturbations():
    rng = np.random.default_rng(4)
    v = rng.random((500, 2)) * 50
    w = v + 0.01 * v**2 / 50 + rng.normal(0, 0.2, size=v.shape)
    report = dc.delta_median(v, w, 2)
    assert oracles.check_match(report.delta, v, w, 2) == []
    assert oracles.check_match(report.delta * (1 + 1e-5), v, w, 2)
    assert oracles.check_match(float("nan"), v, w, 2)
    assert oracles.check_nested({1: 10.0, 3: 9.0, 5: 9.0}) == {}
    assert list(oracles.check_nested({1: 10.0, 3: 9.0, 5: 9.5})) == [5]


def test_report_oracle_flags_inconsistent_reports():
    rng = np.random.default_rng(5)
    v = rng.random((300, 2)) * 50
    w = v + rng.normal(0, 0.2, size=v.shape)
    r = dc.delta_median(v, w, 3)
    assert oracles.check_report(r.delta, r.residuals, r.target_scale, v, w) == []
    assert oracles.check_report(r.delta * (1 + 1e-9), r.residuals, r.target_scale, v, w)
    assert oracles.check_report(r.delta, r.residuals, r.target_scale * 1.001, v, w)
    assert oracles.check_report(r.delta, r.residuals[:-1], r.target_scale, v, w)
    assert oracles.check_report(r.delta, np.where(np.arange(300) == 7, np.nan, r.residuals), r.target_scale, v, w)


def test_match_large_counts_unchecked_degrees_as_known_defects():
    rng = np.random.default_rng(6)
    codes = {"A": rng.random((400, 2)) * 1024}
    codes["B"] = codes["A"] + rng.normal(0, 0.5, size=(400, 2))
    workload = workloads.MatchLarge()
    plan = {f"A->B/d{d}": ("A", "B", d) for d in workload.DEGREES}
    inputs = workloads.MatchInputs(codes, plan)
    outputs = {item: dc.delta_median(codes["A"], codes["B"], d) for item, (_, _, d) in plan.items()}
    wrong = outputs["A->B/d1"]
    outputs["A->B/d1"] = type(wrong)(**{**wrong.__dict__, "delta": wrong.delta * 2, "residuals": wrong.residuals * 2})
    problems = workload.check(inputs, outputs)
    assert problems["A->B/d1"] and not problems["A->B/d2"]
    unchecked = {f"A->B/d{d}" for d in workload.DEGREES if d not in workload.CHECKED_DEGREES}
    assert set(workload.known_defects(inputs, outputs)) == unchecked

    phase = run.Phase(speed=None)
    for item, report in outputs.items():
        phase.digests[item] = [repr(report.delta)] * 3
        phase.outputs[item] = report
    count, found = run.known_defects(workload, inputs, [phase])
    assert "A->B/d7" in found and set(found) <= unchecked
    assert count == 3 * len(found)


def _row(alpha, rel_max, unrel_min, status="ok"):
    if status != "ok":
        return {"alpha": str(alpha), "related_min": "", "related_max": "", "unrelated_min": "",
                "unrelated_max": "", "status": status}
    return {"alpha": str(alpha), "related_min": "0.5", "related_max": str(rel_max),
            "unrelated_min": str(unrel_min), "unrelated_max": "9", "status": status}


def test_sweep_oracle_flags_non_finite_and_unseparated_rows():
    good = [_row(0.01, 0, 0, "invalid")] + [_row(0.02 + 0.01 * i, 1.0, 2.0) for i in range(30)]
    assert oracles.check_sweep(good, 0.01) == []
    with_nan = good[:5] + [_row(0.07, "nan", 2.0)] + good[6:]
    assert oracles.check_sweep(with_nan, 0.01)
    overlapping = [_row(r["alpha"], 3.0, 2.0) if i % 10 == 5 else r for i, r in enumerate(good)]
    assert oracles.check_sweep(overlapping, 0.01)


def test_host_speed_factor_is_the_central_mean_of_the_stretch():
    speed = hostspeed.HostSpeed(clock=FakeClock(), probe=lambda: None)
    speed.mark(repeats=2)  # each run takes one tick
    assert speed.factor() == hostspeed.REF_SECONDS / 1.0
    # a preempted run is trimmed; the two levels the host jumps between are averaged
    speed.seconds = [0.002, 0.030, 0.002, 0.003, 0.003, 0.001]
    assert speed.factor() == pytest.approx(hostspeed.REF_SECONDS / 0.0025)
    speed.ref_seconds = 0.005
    assert speed.factor() == pytest.approx(2.0)
    assert {w.host_kernel for w in workloads.WORKLOADS.values()} <= set(hostspeed.KERNELS)


def test_host_speed_runs_the_kernel_once_per_interval_elapsed():
    clock = FakeClock()  # every call advances one second
    speed = hostspeed.HostSpeed(interval=0.25, clock=clock, probe=lambda: None)
    speed.mark_if_due()
    assert len(speed.seconds) == 1
    clock.now += 1.0
    speed.mark_if_due()  # 3 s since the last run started: 12 due, capped at 10
    assert len(speed.seconds) == 11


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail(list(range(19))) is None
    assert run.tail(list(range(20)))[0] == 50
    assert run.tail(list(range(40)))[0] == 75
    assert run.tail(list(range(1000)))[0] == 90


def test_verdicts_count_raised_nondeterministic_and_wrong_operations():
    class Stub(workloads.Workload):
        name = "stub"

        def items(self, inputs):
            return ["a", "b"]

        def fingerprint(self, output):
            return output

        def check(self, inputs, outputs):
            return {"a": [], "b": ["wrong"] if outputs["b"] == "bad" else []}

    phase = run.Phase(speed=None)
    phase.digests["a"] = ["x", "y", "y"]  # the first differs from the last output
    phase.errors["a"] = ["RuntimeError: boom"]
    phase.outputs["a"] = "y"
    phase.digests["b"] = ["bad", "bad"]
    phase.outputs["b"] = "bad"
    attempted, failed, problems = run.verdicts(Stub(), None, [phase])
    assert (attempted, failed) == (6, 4)
    assert problems["b"] == ["wrong"]


def test_spec_matches_benchmark_json():
    import json

    assert json.loads((run.ROOT / "BENCHMARK.json").read_text()) == run.spec()
