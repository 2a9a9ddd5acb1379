"""In-memory span tracing of densitycode functions, installed from outside.

A :class:`Tracer` replaces selected module attributes with wrappers that
record one span per call: a name, a start, an end and the index of the
enclosing span. Because ``densitycode.cli`` (and the package namespace)
rebind functions with ``from .x import y``, :meth:`Tracer.install` patches
every loaded ``densitycode`` module attribute that is the original function
object, so nested calls such as ``delta_median`` -> ``basis_matrix`` nest
no matter which namespace the caller resolves them through.

Self time of a span is its duration minus the durations of its direct
children; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans, None for a root span

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and per-span counters while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []  # None while the span is open
        self.counts: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self._pending: dict[int, tuple[str, float, int | None]] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        index = len(self.spans) - 1
        self._stack.append(index)
        self._pending[index] = (name, self.clock(), parent)
        return index

    def _close(self, index: int) -> None:
        end = self.clock()
        name, start, parent = self._pending.pop(index)
        self._stack.pop()
        self.spans[index] = Span(name, start, end, parent)

    def wrap(self, name: str, func, measure=None):
        """func wrapped to run inside a span; measure(args, kwargs, result) adds counters.

        A counter key ``key:<k>`` collects distinct values instead of a sum.
        """

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(index)
            if measure is not None:
                for key, value in measure(args, kwargs, result).items():
                    if key.startswith("key:"):
                        self.keys[f"{name}.{key[4:]}"].add(value)
                    else:
                        self.counts[f"{name}.{key}"] += value
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def install(self, targets, package: str = "densitycode") -> None:
        """Patch each (module, attr, span name, measure) target everywhere.

        Every loaded module under ``package`` whose attribute is the
        original function gets the wrapper, which covers names rebound by
        ``from .x import y``.
        """
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        ]
        for module, attr, span_name, measure in targets:
            original = getattr(module, attr)
            wrapper = self.wrap(span_name, original, measure)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_times(self) -> list[float]:
        """Self time of every span, in the order of ``self.spans``."""
        child_total = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span.parent is not None:
                child_total[span.parent] += span.duration
        return [
            (span.duration - child_total[i]) if span is not None else 0.0
            for i, span in enumerate(self.spans)
        ]

    def summary(self) -> dict:
        """Per span name: calls, total and self milliseconds; plus counters."""
        out: dict[str, dict] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            if span is None:
                continue
            entry = out.setdefault(span.name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["ms"] += span.duration * 1e3
            entry["self_ms"] += self_s * 1e3
        return {
            "spans": out,
            "counts": dict(self.counts),
            "distinct": {key: len(values) for key, values in self.keys.items()},
        }


def merge_summaries(summaries) -> dict:
    """Add up span and counter summaries from several tracers or processes."""
    spans: dict[str, dict] = {}
    counts: dict[str, float] = defaultdict(float)
    distinct: dict[str, int] = defaultdict(int)
    for summary in summaries:
        for name, entry in summary["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            for key in acc:
                acc[key] += entry[key]
        for key, value in summary["counts"].items():
            counts[key] += value
        for key, value in summary["distinct"].items():
            distinct[key] += value
    return {"spans": spans, "counts": dict(counts), "distinct": dict(distinct)}


def _path_size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _basis_key(args, kwargs, result) -> dict:
    """Cells built, and which (source buffer, prefix length, degree) they came from."""
    code, exps = args[0], args[1]
    pts = np.asarray(getattr(code, "points", code))
    source = pts.__array_interface__["data"][0]
    return {"cells": result.size, "key:bases": (source, pts.shape[0], exps.d)}


def densitycode_targets():
    """The densitycode functions traced by the benchmark, one span name each."""
    from densitycode import cli, corpus, encoder, image_io, matcher, quasirandom

    return [
        (cli, "main", "cli.main", None),
        (quasirandom, "halton", "quasirandom.halton", lambda a, k, r: {"points": r.m}),
        (image_io, "load_image", "image_io.load_image", lambda a, k, r: {"bytes": _path_size(a[0])}),
        (image_io, "normalize", "image_io.normalize", None),
        (image_io, "make_density_field", "image_io.make_density_field", lambda a, k, r: {"pixels": r.f.size}),
        (encoder, "encode", "encoder.encode", lambda a, k, r: {"points": r.m}),
        (encoder, "write_code_csv", "encoder.write_code_csv", lambda a, k, r: {"bytes": _path_size(a[1])}),
        (encoder, "read_code_csv", "encoder.read_code_csv", None),
        (matcher, "delta_median", "matcher.delta_median", None),
        (matcher, "basis_matrix", "matcher.basis_matrix", _basis_key),
        (matcher, "least_squares_fit", "matcher.least_squares_fit", None),
        (matcher, "all_powers", "matcher.all_powers", None),
        (corpus, "generate_corpus", "corpus.generate_corpus", None),
        (corpus, "generate_figure", "corpus.generate_figure", None),
        (corpus, "warp_image", "corpus.warp_image", None),
    ]


def parse_importtime(stderr: str, package: str = "densitycode") -> tuple[float, float]:
    """Milliseconds to import `package` and, within that, scipy.

    ``-X importtime`` prints one line per module after its children, with
    two spaces of indentation per nesting level. The package cost is the
    cumulative time of its top-level entries; the scipy cost sums the
    cumulative time of every scipy entry whose importer is not scipy.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the column header
        stripped = name.lstrip(" ")
        level = (len(name) - len(stripped) - 1) // 2
        entries.append((level, int(cumulative), stripped.strip()))
    package_us = scipy_us = 0
    ancestors: list[str] = []
    for level, cumulative, name in reversed(entries):  # parents before children
        del ancestors[level:]
        parent = ancestors[-1] if ancestors else ""
        ancestors.append(name)
        if level == 0 and (name == package or name.startswith(package + ".")):
            package_us += cumulative
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            if ancestors[0].split(".")[0] == package:
                scipy_us += cumulative
    return package_us / 1e3, scipy_us / 1e3
