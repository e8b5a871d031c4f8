"""normda's benchmark: one command per workload, end-to-end metrics with
units, per-layer metrics from a traced run, and a correctness gate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py. Each is a fixed pool of instances
whose references are recorded in reference.json. A run executes passes
over the whole pool, in an order drawn from --seed, until --seconds have
passed (at least one pass). Every instance runs in a fresh process with
BLAS pinned to one thread through the environment, so pool workers inherit
the pin. One client runs one instance at a time (a closed loop).

The pool is fixed because the SMO solver's work on unnormalized data swings
by about 20 % between datasets and between root seeds; a pool drawn fresh
from each seed would bury a regression of the size the bounds catch.

With --trace 0 the last line holds the end-to-end metrics:
  run_s         mean seconds per instance from ready inputs to a written
                report directory (median over passes)
  setup_s       seconds for `import normda`, the dataset build and
                folds_for (median over instances)
  peak_rss_mb   peak RSS of an instance process plus that of its largest
                pool child (max over instances)
  acc_mean_pct  mean cell accuracy over the pool, in percent
  fit_ok_frac   (strategy, fold, method) fits that succeeded / attempted
With --trace 1 each instance runs untraced and then traced, and the last
line holds the per-layer metrics (means per instance, maxima for *_max*).

The run exits 1 when a check fails: a FAIL cell, a cell mean more than
`tolerance_pp` from its reference, a traced or repeated execution whose
folds.csv differs from the first, or (headline-loso) a criterion-1
inequality on the pool means.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 170.0


END_TO_END = {
    "run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "acc_mean_pct": "%", "fit_ok_frac": "fraction",
}

# Per-layer metric -> unit. Values are means per instance unless the name
# marks a maximum or a fraction.
PER_LAYER = {
    "svm.train_s": "s", "svm.train_calls": "count", "svm.predict_s": "s", "svm.n_support": "count",
    "svm.rel_gap_max": "ratio", "svm.self_s": "s",
    "shallow.tca_fit_s": "s", "shallow.kpca_fit_s": "s", "shallow.median_gamma_s": "s",
    "shallow.gram_s": "s", "shallow.gram_calls": "count", "shallow.gram_max_bytes": "bytes",
    "shallow.self_s": "s",
    "deep.train_plain_s": "s", "deep.train_dann_s": "s", "deep.train_adda_s": "s",
    "deep.adam_step_s": "s", "deep.adam_steps": "count", "deep.forward_s": "s",
    "deep.backward_s": "s", "deep.self_s": "s",
    "features.de_s": "s", "features.bandpass_calls": "count", "features.self_s": "s",
    "dataset.generate_s": "s", "dataset.folds_s": "s", "dataset.load_csv_s": "s",
    "dataset.load_csv_calls": "count", "dataset.self_s": "s",
    "normalize.apply_s": "s", "normalize.apply_calls": "count", "normalize.self_s": "s",
    "bench.group_s": "s", "bench.grid_search_s": "s", "bench.grid_points": "count",
    "bench.grid_point_ok_frac": "fraction", "bench.cell_time_gap_s": "s",
    "bench.pool_wait_s": "s", "bench.pool_busy_frac": "fraction",
    "bench.submit_pickle_bytes": "bytes", "bench.write_report_s": "s", "bench.projection_s": "s",
    "bench.single_class_fits": "count", "bench.acc_max_dev_pp": "pp", "bench.fit_fail_frac": "fraction",
    "bench.trace_overhead_s": "s", "bench.folds_sha_match": "fraction", "bench.self_s": "s",
    "cli.overhead_s": "s", "cli.self_s": "s",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_instance(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """Execute one instance in a fresh process and return its result."""
    outdir = OUT / workload / f"{seed}-{'traced' if trace else 'plain'}"
    cmd = [
        sys.executable, str(HERE / "instance.py"), "--workload", workload, "--seed", str(seed),
        "--out", str(outdir), "--trace", str(int(trace)),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget spent before every instance ran")
    # A session of its own lets a timeout kill the instance's pool workers too.
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} instance {seed} did not finish within the time budget") from exc
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"{workload} instance {seed} exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def check_instance(workload: str, seed: int, result: dict, reference: dict) -> tuple[list[str], float]:
    """Problems with one instance's outputs, and its largest |cell - reference| in pp."""
    problems = []
    ref = reference["workloads"].get(workload, {}).get(str(seed))
    if ref is None:
        return [f"{workload} instance {seed}: no reference recorded"], 0.0
    tol = reference["tolerance_pp"]
    worst = 0.0
    if set(result["cells"]) != set(ref["cells"]):
        problems.append(f"{workload}/{seed}: cells {sorted(result['cells'])} != reference {sorted(ref['cells'])}")
    for cell, expected in ref["cells"].items():
        got = result["cells"].get(cell)
        if got is None:
            problems.append(f"{workload}/{seed}: cell {cell} failed")
            continue
        dev = abs(got - expected) * 100.0
        worst = max(worst, dev)
        if dev > tol:
            problems.append(f"{workload}/{seed}: {cell} = {got:.4f}, reference {expected:.4f} (> {tol} pp)")
    return problems, worst


def check_criterion_1(cells_by_instance: list[dict]) -> list[str]:
    """Acceptance criterion 1 on the pool means: Z2 + plain SVM beats
    unnormalized TCA-SVM by 10 points and unnormalized SVM by 20."""
    def mean(cell):
        return statistics.fmean(c[cell] for c in cells_by_instance)

    z2, tca, svm = mean("Z2/noDA-SVM"), mean("noNorm/TCA-SVM"), mean("noNorm/noDA-SVM")
    problems = []
    if not z2 >= tca + 0.10:
        problems.append(f"criterion 1: Z2/noDA-SVM {z2:.4f} < noNorm/TCA-SVM {tca:.4f} + 0.10")
    if not z2 >= svm + 0.20:
        problems.append(f"criterion 1: Z2/noDA-SVM {z2:.4f} < noNorm/noDA-SVM {svm:.4f} + 0.20")
    return problems


def layer_summary(traced: list[dict], plain: list[dict]) -> dict[str, float]:
    """Per-layer metrics over the instances of one pass."""
    out = {}
    for name in PER_LAYER:
        if name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            out[name] = max(values) if "_max" in name else statistics.fmean(values)
    out["bench.cell_time_gap_s"] = statistics.fmean(r["run_s"] - r["cell_seconds"] for r in plain)
    out["bench.fit_fail_frac"] = sum(r["failed_fits"] for r in plain) / sum(r["attempted_fits"] for r in plain)
    out["bench.trace_overhead_s"] = statistics.fmean(t["run_s"] - p["run_s"] for t, p in zip(traced, plain))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "normda" / "__init__.py").is_file():
        print(f"error: no normda sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = load_reference()
    order = list(WORKLOADS[args.workload].instances)
    random.Random(args.seed).shuffle(order)

    started = time.monotonic()
    passes: list[dict[int, dict]] = []
    traced_passes: list[dict[int, dict]] = []
    try:
        while True:
            pass_start = time.monotonic()
            plain, traced = {}, {}
            for seed in order:
                plain[seed] = run_instance(args.workload, seed, False, deadline)
                if args.trace:
                    traced[seed] = run_instance(args.workload, seed, True, deadline)
            passes.append(plain)
            traced_passes.append(traced)
            # Stop when another pass would overrun --seconds or the deadline.
            now = time.monotonic()
            if now - started + (now - pass_start) > min(args.seconds, 0.8 * DEADLINE_S):
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    problems, worst_dev = [], 0.0
    first = passes[0]
    for seed in order:
        found, dev = check_instance(args.workload, seed, first[seed], reference)
        problems += found
        worst_dev = max(worst_dev, dev)
        reruns = [p[seed] for p in passes[1:]] + [t[seed] for t in traced_passes if t]
        if any(r["folds_sha256"] != first[seed]["folds_sha256"] for r in reruns):
            problems.append(f"{args.workload}/{seed}: a repeated or traced execution changed folds.csv")
    if args.workload == "headline-loso":
        problems += check_criterion_1([first[s]["cells"] for s in order])

    env = first[order[0]]["environment"]
    print("environment: " + json.dumps({**env, "commit": commit()}, sort_keys=True))
    print(f"workload {args.workload}: instances {order}, {len(passes)} pass(es), {len(order) * len(passes)} executions")
    results = [p[s] for p in passes for s in order]
    for i, plain in enumerate(passes):
        print(f"pass {i}: " + ", ".join(f"{s}: run_s={plain[s]['run_s']:.4f} setup_s={plain[s]['setup_s']:.4f}" for s in order))
    failed = sum(r["failed_fits"] for r in first.values())
    attempted = sum(r["attempted_fits"] for r in first.values())
    if args.trace:
        per_pass = [layer_summary([t[s] for s in order], [p[s] for s in order]) for t, p in zip(traced_passes, passes)]
        metrics = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
        metrics["bench.acc_max_dev_pp"] = worst_dev
        metrics["bench.folds_sha_match"] = statistics.fmean(
            float(first[s]["folds_sha256"] == reference["workloads"][args.workload][str(s)]["folds_sha256"])
            for s in order
        )
        units = PER_LAYER
        for row in traced_passes[-1][order[0]]["spans"]:
            tail = "n<20" if row["tail"] is None else f"p{row['tail'][0]:g}={row['tail'][1]:.6f}s"
            print(f"span {row['name']}: n={row['n']} total={row['total_s']:.4f}s median={row['median_s']:.6f}s {tail}")
    else:
        cells = [v for r in first.values() for v in r["cells"].values() if v is not None]
        metrics = {
            "run_s": statistics.median(statistics.fmean(p[s]["run_s"] for s in order) for p in passes),
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
            "acc_mean_pct": 100.0 * statistics.fmean(cells) if cells else 0.0,
            "fit_ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if problems else 0


def commit() -> str:
    """The checked-out commit, when the checkout is a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


if __name__ == "__main__":
    sys.exit(main())
