"""Wrapper spans around normda's public functions, recorded from outside the
package.

A `Tracer` replaces selected functions with wrappers that record one span
per call: name, start, end, parent span and whether the call raised. Spans
stay in memory until the traced process ends. Pool workers forked by
`ProcessPoolExecutor` record their own spans, ship them back with each
task's result, and the parent merges them under the span that submitted
the task.

Layer self time is a span's duration minus the part of it that child spans
cover; children of one span can overlap when they ran in parallel pool
workers, so coverage is the union of their intervals.
"""

from __future__ import annotations

import functools
import inspect
import pickle
import sys
import threading
import time
from collections import Counter
from concurrent import futures

import numpy as np

# Modules whose public functions are wrapped, with the functions to wrap.
# Each entry names the layer the function belongs to.
TRACED = {
    "svm": ("svm_train", "svm_predict"),
    "shallow": ("gram", "median_heuristic_gamma", "tca_fit", "tca_transform", "kpca_fit", "kpca_transform"),
    "deep": ("train_plain", "train_dann", "train_adda", "adam_step", "forward", "backward"),
    "features": ("differential_entropy", "butter_bandpass"),
    "dataset": ("generate_synthetic", "loso_folds", "hlso_folds", "load_csv", "save_csv"),
    "normalize": ("apply_strategy",),
    "bench": (
        "run_experiment", "_run_fold_group", "resolve_fold_specs", "grid_search",
        "apply_grid_point", "fit_method", "predict_method", "write_report", "emit_projection",
    ),
    "cli": ("main",),
}

# A probe runs benchmark-side checks on a traced call's result. Its time is
# recorded as a span of this pseudo-layer so no normda layer is charged.
PROBE = "perfbench.probe"
POOL_TASK = "perfbench.pool_task"

_ACTIVE: "Tracer | None" = None


class Tracer:
    """In-memory span store for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.failed: list[bool] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.single_class: list[str] = []
        self.pool = {"wait_s": 0.0, "busy_s": 0.0, "capacity_s": 0.0}
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(float("nan"))
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.failed.append(False)
        self.stack.append(sid)
        return sid

    def close(self, sid: int, failed: bool = False) -> None:
        self.ends[sid] = time.perf_counter()
        self.failed[sid] = failed
        self.stack.pop()

    def wrap(self, name: str, fn, probe=None):
        """Return `fn` wrapped in a span; `probe(args, kwargs, result)` runs
        after the span closes, inside a span of its own."""

        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(sid, failed=True)
                raise
            self.close(sid)
            if probe is not None:
                pid = self.open(PROBE)
                try:
                    probe(args, kwargs, result)
                finally:
                    self.close(pid)
            return result

        # The original's module and name keep the wrapper picklable by
        # reference, as ProcessPoolExecutor.submit needs.
        return functools.update_wrapper(wrapper, fn)

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, float("-inf")), float(value))

    # -- installation ----------------------------------------------------

    def install(self, package) -> None:
        """Wrap every function in TRACED wherever the package binds it.

        `from .shallow import gram` gives svm and bench their own binding of
        the same function object, so each module attribute that is the
        original function is replaced.
        """
        global _ACTIVE
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]
        probes = _probes(self)
        for layer, names in TRACED.items():
            home = sys.modules[f"{package.__name__}.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapped = self.wrap(f"{layer}.{name}", original, probes.get(f"{layer}.{name}"))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, value))
                            setattr(module, attr, wrapped)
        self._restore.append((futures, "ProcessPoolExecutor", futures.ProcessPoolExecutor))
        futures.ProcessPoolExecutor = _traced_pool_class(self)
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()
        _ACTIVE = None

    # -- pool workers ----------------------------------------------------

    def reset(self) -> None:
        """Drop spans inherited from the parent when a worker starts a task."""
        for lst in (self.names, self.starts, self.ends, self.parents, self.failed, self.stack, self.single_class):
            lst.clear()
        self.counters.clear()
        self.maxima.clear()

    def export(self) -> dict:
        return {
            "names": list(self.names), "starts": list(self.starts), "ends": list(self.ends),
            "parents": list(self.parents), "failed": list(self.failed),
            "counters": dict(self.counters), "maxima": dict(self.maxima),
            "single_class": list(self.single_class),
        }

    def merge(self, exported: dict, parent: int) -> None:
        """Append a worker's spans; its root spans hang under `parent`."""
        with self._lock:
            offset = len(self.names)
            self.names.extend(exported["names"])
            self.starts.extend(exported["starts"])
            self.ends.extend(exported["ends"])
            self.parents.extend(p + offset if p >= 0 else parent for p in exported["parents"])
            self.failed.extend(exported["failed"])
            self.counters.update(exported["counters"])
            for key, value in exported["maxima"].items():
                self.maximum(key, value)
            self.single_class.extend(exported["single_class"])

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.asarray(self.names, dtype=object),
            "starts": np.asarray(self.starts, dtype=np.float64),
            "ends": np.asarray(self.ends, dtype=np.float64),
            "parents": np.asarray(self.parents, dtype=np.int64),
            "failed": np.asarray(self.failed, dtype=bool),
        }

    def save(self, path) -> None:
        """Write every span once, as parallel arrays with names interned."""
        arr = self.arrays()
        vocab, codes = np.unique(arr["names"].astype(str), return_inverse=True)
        np.savez_compressed(
            path, vocab=vocab, codes=codes, starts=arr["starts"], ends=arr["ends"],
            parents=arr["parents"], failed=arr["failed"],
        )


def self_times(starts, ends, parents) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span."""
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    parents = np.asarray(parents, dtype=np.int64)
    out = ends - starts
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(int(p), []).append(i)
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        spans = sorted((max(starts[k], lo), min(ends[k], hi)) for k in kids)
        covered, cur_a, cur_b = 0.0, None, None
        for a, b in spans:
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out[p] -= covered
    return out


def relative_duality_gap(K, y, C, coefs, bias) -> float:
    """(primal - dual) / primal for one binary soft-margin SVM.

    `coefs` are the signed multipliers alpha_i * y_i over all training rows
    and the decision function is K @ coefs + bias. The dual objective is
    sum(alpha) - coefs' K coefs / 2; the primal objective at the same w and
    bias is coefs' K coefs / 2 + C * sum(hinge).
    """
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    coefs = np.asarray(coefs, dtype=np.float64)
    quad = float(coefs @ K @ coefs)
    hinge = np.maximum(0.0, 1.0 - y * (K @ coefs + bias))
    primal = 0.5 * quad + C * float(hinge.sum())
    dual = float(np.abs(coefs).sum()) - 0.5 * quad
    return (primal - dual) / max(abs(primal), 1e-300)


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(inspect.unwrap(fn)).bind(*args, **kwargs).arguments


def _probes(tracer: Tracer) -> dict:
    """Benchmark-side checks on traced results, keyed by span name.

    Built before any function is wrapped, so the probes' own kernel
    evaluations call the original `gram` and record no span.
    """
    from normda import bench, shallow, svm

    gram = shallow.gram

    def svm_gap(args, kwargs, model):
        a = _bound(svm.svm_train, args, kwargs)
        X = np.asarray(a["X"], dtype=np.float64)
        y = np.asarray(a["y"])
        tracer.counters["svm.n_support"] += model.support_rows.shape[0]
        K = gram(X, X, model.kernel)
        support = _support_index(X, model.support_rows)
        for ci, c in enumerate(model.classes):
            coefs = np.zeros(X.shape[0])
            coefs[support] = model.dual_coefs[ci]
            y_pm = np.where(y == c, 1.0, -1.0)
            gap = relative_duality_gap(K, y_pm, model.C, coefs, model.biases[ci])
            tracer.maximum("svm.rel_gap_max", gap)

    def gram_bytes(args, kwargs, result):
        tracer.maximum("shallow.gram_max_bytes", result.shape[0] * result.shape[1] * 8)

    def fold_prediction(args, kwargs, result):
        # Count only a cell's final test-side prediction, made directly by
        # the fold group; grid-search predictions are skipped. The caller
        # is the parent of this probe's own span.
        caller = tracer.parents[tracer.stack[-1]]
        if caller >= 0 and tracer.names[caller] == "bench._run_fold_group" and np.unique(result).size == 1:
            tracer.single_class.append(_bound(bench.predict_method, args, kwargs)["fitted"].kind)

    return {
        "svm.svm_train": svm_gap,
        "shallow.gram": gram_bytes,
        "bench.predict_method": fold_prediction,
    }


def _support_index(X: np.ndarray, support_rows: np.ndarray) -> np.ndarray:
    """Row positions of the support vectors (svm_train keeps them in order)."""
    idx, j = [], 0
    for i in range(X.shape[0]):
        if j < support_rows.shape[0] and np.array_equal(X[i], support_rows[j]):
            idx.append(i)
            j += 1
    if j != support_rows.shape[0]:
        raise ValueError("support rows are not an ordered subset of the training rows")
    return np.asarray(idx, dtype=np.int64)


def _pool_task(fn, submitted: float, args, kwargs):
    """Run one pool task in a worker under a fresh span store."""
    started = time.perf_counter()
    tracer = _ACTIVE
    tracer.reset()
    sid = tracer.open(POOL_TASK)
    try:
        result = fn(*args, **kwargs)
    finally:
        tracer.close(sid)
    return result, tracer.export(), submitted, started, time.perf_counter()


def _traced_pool_class(tracer: Tracer):
    base = futures.ProcessPoolExecutor

    class TracedPool(base):
        """Process pool whose workers' spans come back with their results."""

        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            self._workers = self._max_workers
            self._opened = time.perf_counter()

        def submit(self, fn, /, *args, **kwargs):
            with tracer._lock:
                tracer.counters["bench.submit_pickle_bytes"] += len(pickle.dumps((fn, args, kwargs)))
            parent = tracer.stack[-1] if tracer.stack else -1
            inner = super().submit(_pool_task, fn, time.perf_counter(), args, kwargs)
            outer = futures.Future()

            def relay(done):
                try:
                    result, exported, submitted, started, ended = done.result()
                except Exception as exc:  # re-raised where bench reads the future
                    outer.set_exception(exc)
                    return
                tracer.merge(exported, parent)
                with tracer._lock:
                    tracer.pool["wait_s"] += started - submitted
                    tracer.pool["busy_s"] += ended - started
                outer.set_result(result)

            inner.add_done_callback(relay)
            return outer

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            with tracer._lock:
                tracer.pool["capacity_s"] += self._workers * (time.perf_counter() - self._opened)

    return TracedPool


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times and counts for one traced process."""
    arr = tracer.arrays()
    names, starts, ends, parents = arr["names"], arr["starts"], arr["ends"], arr["parents"]
    dur = ends - starts
    selfs = self_times(starts, ends, parents)

    def total(*span_names):
        return float(dur[np.isin(names, span_names)].sum())

    def count(*span_names):
        return int(np.isin(names, span_names).sum())

    def children_of(parent_name, *child_names):
        parent_ids = np.flatnonzero(names == parent_name)
        return np.isin(parents, parent_ids) & np.isin(names, child_names)

    out: dict[str, float] = {
        "svm.train_s": total("svm.svm_train"),
        "svm.train_calls": count("svm.svm_train"),
        "svm.predict_s": total("svm.svm_predict"),
        "svm.n_support": tracer.counters["svm.n_support"],
        "svm.rel_gap_max": tracer.maxima.get("svm.rel_gap_max", 0.0),
        "shallow.tca_fit_s": total("shallow.tca_fit"),
        "shallow.kpca_fit_s": total("shallow.kpca_fit"),
        "shallow.median_gamma_s": total("shallow.median_heuristic_gamma"),
        "shallow.gram_s": total("shallow.gram"),
        "shallow.gram_calls": count("shallow.gram"),
        "shallow.gram_max_bytes": tracer.maxima.get("shallow.gram_max_bytes", 0.0),
        "deep.train_plain_s": total("deep.train_plain"),
        "deep.train_dann_s": total("deep.train_dann"),
        "deep.train_adda_s": total("deep.train_adda"),
        "deep.adam_step_s": total("deep.adam_step"),
        "deep.adam_steps": count("deep.adam_step"),
        "deep.forward_s": total("deep.forward"),
        "deep.backward_s": total("deep.backward"),
        "features.de_s": total("features.differential_entropy"),
        "features.bandpass_calls": count("features.butter_bandpass"),
        "dataset.generate_s": total("dataset.generate_synthetic"),
        "dataset.folds_s": total("dataset.loso_folds", "dataset.hlso_folds"),
        "dataset.load_csv_s": total("dataset.load_csv"),
        "dataset.load_csv_calls": count("dataset.load_csv"),
        "normalize.apply_s": total("normalize.apply_strategy"),
        "normalize.apply_calls": count("normalize.apply_strategy"),
        "bench.grid_search_s": total("bench.grid_search"),
        "bench.grid_points": count("bench.apply_grid_point"),
        "bench.write_report_s": total("bench.write_report"),
        "bench.projection_s": total("bench.emit_projection"),
        "bench.single_class_fits": len(tracer.single_class),
        "bench.submit_pickle_bytes": tracer.counters["bench.submit_pickle_bytes"],
        "bench.pool_wait_s": tracer.pool["wait_s"],
        "bench.pool_busy_frac": (
            tracer.pool["busy_s"] / tracer.pool["capacity_s"] if tracer.pool["capacity_s"] else 0.0
        ),
    }
    groups = count("bench._run_fold_group")
    out["bench.group_s"] = total("bench._run_fold_group") / groups if groups else 0.0
    points = out["bench.grid_points"]
    failed_points = int(
        (children_of("bench.grid_search", "bench.fit_method", "bench.predict_method") & arr["failed"]).sum()
    )
    out["bench.grid_point_ok_frac"] = (points - failed_points) / points if points else 1.0
    inner = children_of("cli.main", "bench.run_experiment", "bench.write_report")
    out["cli.overhead_s"] = total("cli.main") - float(dur[inner].sum())
    for layer in TRACED:
        mask = np.array([n.startswith(layer + ".") for n in names], dtype=bool)
        out[f"{layer}.self_s"] = float(selfs[mask].sum()) if mask.size else 0.0
    return out
