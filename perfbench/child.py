"""Child processes of the benchmark's traced runs.

``child.py cli SUMMARY_JSON ARGS...`` runs ``densitycode.cli.main(ARGS)``
in a fresh interpreter with the tracer installed, writes the span summary
to SUMMARY_JSON and exits with the CLI's status.

``child.py fits CODES_NPZ REPS`` times ``delta_median`` on the arrays
stored by the match_large workload (REPS calls per item) under whatever
BLAS threading the environment leaves, and prints the median
milliseconds per item as JSON.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import tracing


def run_cli(summary_path: str, args: list[str]) -> int:
    from densitycode import cli

    tracer = tracing.Tracer()
    tracer.install(tracing.densitycode_targets())
    try:
        status = cli.main(args)
    finally:
        tracer.uninstall()
    Path(summary_path).write_text(json.dumps(tracer.summary()))
    return status


def time_fits(npz_path: str, reps: int) -> int:
    import numpy as np

    import densitycode as dc

    data = np.load(npz_path)
    out = {}
    for item in json.loads(str(data["items"])):
        v, w = data[item["source"]], data[item["target"]]
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            dc.delta_median(v, w, item["degree"])
            times.append(time.perf_counter() - t0)
        out[item["name"]] = statistics.median(times) * 1e3
    print(json.dumps(out))
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["cli"] and len(argv) >= 2:
        return run_cli(argv[1], argv[2:])
    if argv[:1] == ["fits"] and len(argv) == 3:
        return time_fits(argv[1], int(argv[2]))
    print("usage: child.py cli SUMMARY_JSON ARGS... | child.py fits CODES_NPZ REPS", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
