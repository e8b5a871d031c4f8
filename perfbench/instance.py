"""Run one benchmark instance in this process and print its result as one
JSON line.

    python3 perfbench/instance.py --workload NAME --seed N --out DIR --trace 0|1

Set-up time runs from before `import normda` to ready inputs; run time from
ready inputs to a written report directory. With --trace 1, normda's public
functions are wrapped in spans (see tracing.py), the spans are written to
DIR/spans.npz, and per-layer metrics are added to the result.

The package is imported from the checkout's src/ only, and the instance
fails if it is found anywhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def span_summary(tracer, top: int = 8) -> list[dict]:
    """Busiest span names with count, median and the tail percentile."""
    import numpy as np
    from stats import tail_percentile

    arr = tracer.arrays()
    dur = arr["ends"] - arr["starts"]
    rows = []
    for name in set(tracer.names):
        d = dur[arr["names"] == name]
        tail = tail_percentile(d.tolist())
        rows.append({
            "name": name, "n": int(d.size), "total_s": float(d.sum()),
            "median_s": float(np.median(d)),
            "tail": None if tail is None else [tail[0], float(tail[1])],
        })
    return sorted(rows, key=lambda r: -r["total_s"])[:top]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    outdir = Path(args.out)

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import normda
    import normda.cli

    if Path(normda.__file__).resolve().parent != ROOT / "src" / "normda":
        print(f"normda imported from {normda.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, cell_seconds, failed_fits, folds_sha256, n_folds, read_cells

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(normda)
    inputs = workload.prepare(args.seed, outdir)
    setup_s = time.perf_counter() - start

    begin = time.perf_counter()
    workload.execute(inputs, outdir)
    run_s = time.perf_counter() - begin

    folds = n_folds(outdir)
    failed, attempted = failed_fits(outdir, folds)
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        ) / 1024.0,
        "cells": read_cells(outdir),
        "folds_sha256": folds_sha256(outdir),
        "failed_fits": failed,
        "attempted_fits": attempted,
        "cell_seconds": cell_seconds(outdir),
        "environment": environment(),
    }
    if tracer is not None:
        from tracing import layer_metrics

        tracer.uninstall()
        result["layers"] = layer_metrics(tracer)
        result["spans"] = span_summary(tracer)
        tracer.save(outdir / "spans.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
