"""Host-speed reference: a fixed kernel timed next to the workload.

Other tenants of a shared host slow every process down, by tens of percent
and for minutes to hours at a time, which moves wall-clock medians from one
run to the next far more than the bounds allow. The benchmark therefore
times a fixed kernel, which does not touch densitycode, between operations
and rescales a whole stretch of operations by the kernel's speed over that
stretch: ``normalized = measured * reference time / kernel time``. A faster
program still reads faster; a slower host mostly does not.

One kernel run is a poor reading on such a host: back-to-back runs jump
between two levels about 50% apart, a preempted run reads 2-3x slow, and a
single run moves about three times as much as the operation next to it.
Rescaling each operation by the runs next to it therefore adds noise. The
kernel time is instead the mean of the middle half of all the stretch's
kernel runs, taken about once per ``interval`` of workload time, in bursts
between operations, so that it weighs the host's levels as the operations
met them.

The mixed kernel imitates the program's kinds of work without calling it:
small cubic least-squares fits and residual medians, blended-row CDFs
searched by bisection, pure-Python digit reversal and a memory-bound sort.
The host's fast level speeds it up about twice as much as it speeds up a
large fit, which would over-correct a workload made of large fits; such a
workload uses the large-fit kernel instead, which tracks its fits to within
2% over those levels. Nor does it track the start of a fresh interpreter
well: a workload of CLI commands uses the interpreter kernel, a bare
``python -c pass``, which follows them more closely (in one-second blocks
the commands' time over the kernel's varied by 9% against 15%).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# Each kernel's time on an unloaded 2-core host; it only sets the scale, so
# normalized times read as milliseconds on such a host.
REF_SECONDS = 0.0055
LARGE_FIT_REF_SECONDS = 0.0038
INTERPRETER_REF_SECONDS = 0.035

_rng = np.random.default_rng(0)
_P = _rng.random((400, 2)) * 128.0
_Q = _P + _rng.random((400, 2))
_EXPONENTS = [(i, k - i) for k in range(4) for i in range(k + 1)]
_ROW_A = _rng.random(1024)
_ROW_B = _rng.random(1024)
_ARRAY = _rng.random(100_000)
_BIG = _rng.random((4097, 36))  # the shape of a degree-7 fit on 4097 points
_BIG_T = _rng.random((4097, 2))


def kernel() -> float:
    total = 0.0
    for _ in range(12):
        B = np.column_stack([_P[:, 0] ** i * _P[:, 1] ** j for i, j in _EXPONENTS])
        T = np.linalg.lstsq(B, _Q, rcond=None)[0]
        total += float(np.median(np.sqrt(((B @ T - _Q) ** 2).sum(axis=1))))
    for _ in range(100):
        c = np.cumsum(_ROW_A + 0.37 * (_ROW_B - _ROW_A))
        c /= c[-1]
        lo, hi = 0, c.size
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            if 0.3 >= c[mid - 1]:
                lo = mid
            else:
                hi = mid
        total += lo
    for i in range(1, 3000):
        t, r = i, 0
        while t:
            t, d = divmod(t, 3)
            r = r * 3 + d
        total += r
    total += float(np.sort(_ARRAY).sum())
    return total


def large_fit_kernel() -> float:
    total = 0.0
    for _ in range(2):
        total += float(np.linalg.lstsq(_BIG, _BIG_T, rcond=None)[0].sum())
    return total


def interpreter_kernel() -> float:
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return 0.0


# name -> (kernel, its time on the reference host, seconds of workload per run)
KERNELS = {
    "mixed": (kernel, REF_SECONDS, 0.2),
    "large_fit": (large_fit_kernel, LARGE_FIT_REF_SECONDS, 0.2),
    "interpreter": (interpreter_kernel, INTERPRETER_REF_SECONDS, 1.0),
}


def central_mean(values: list[float]) -> float:
    """Mean of the middle half of `values` (all of them when there are fewer than 4)."""
    ordered = sorted(values)
    k = len(ordered) // 4
    return statistics.fmean(ordered[k : len(ordered) - k])


class HostSpeed:
    """Kernel timings (start, seconds) taken during one stretch of the run."""

    def __init__(self, interval: float = 0.2, clock=time.perf_counter, probe=kernel,
                 ref_seconds: float = REF_SECONDS):
        self.interval = interval
        self.clock = clock
        self.probe = probe
        self.ref_seconds = ref_seconds
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def mark(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            t0 = self.clock()
            self.probe()
            self.starts.append(t0)
            self.seconds.append(self.clock() - t0)

    def mark_if_due(self) -> None:
        """Run the kernel once per `interval` elapsed since the last run, at most 10 times."""
        if not self.starts:
            self.mark()
            return
        due = int((self.clock() - self.starts[-1]) / self.interval)
        if due:
            self.mark(min(due, 10))

    def factor(self) -> float:
        """The reference time over the central mean of the stretch's kernel times."""
        return self.ref_seconds / central_mean(self.seconds)
