"""Experiment harness: composes normalization strategies, DA methods and
classifiers over LOSO/HLSO folds, aggregates fold accuracies into the
strategy-by-method table, and emits reports plus 2-D projection data.

Every cell is a pure function of (data, method spec, derived seed), so a
rerun with one root seed reproduces report.csv byte for byte. Test labels
are consulted only when scoring: fitting receives test-side features
(unsupervised-DA contract) but never test labels.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import numbers
import os
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .dataset import (
    PROTOCOLS,
    DomainDataset,
    Fold,
    SyntheticShiftConfig,
    accuracy,
    folds_for,
    generate_synthetic,
    load_csv,
    parse_numbers,
    stratified_indices,
)
from .deep import (
    TrainConfig,
    network_specs,
    predict,
    train_adda,
    train_dann,
    train_plain,
)
from .errors import (
    ConfigError,
    DegenerateDataError,
    ExperimentError,
    NormdaError,
    NumericError,
    bounded,
    check_field_types,
    check_type,
)
from .normalize import NormStrategy, apply_strategy
from .shallow import (
    KernelSpec,
    _fix_signs,
    kpca_fit,
    kpca_transform,
    tca_fit,
    tca_transform,
)
from .svm import svm_predict, svm_train

STRATEGY_ORDER = tuple(s.value for s in NormStrategy)
ARCH_KEYS = ("hidden", "feature_dim", "activation")


# ---------------------------------------------------------------------------
# Method registry
#
# Each method kind is one row of METHODS: fit(spec, problems) fits every
# FitProblem of the list and returns, per problem, (payload tuple or the
# NormdaError that failed it, seconds); predict(payload, X) labels rows;
# reads names the MethodSpec fields the fit reads (`train` stands for every
# TrainConfig field). The entries call svm_train, tca_fit, train_dann and
# the rest through this module's globals, so rebinding those names (as
# tests and tracing do) reaches every fit and predict.


class MethodEntry(NamedTuple):
    fit: Callable[..., list]
    predict: Callable[[tuple, np.ndarray], np.ndarray]
    reads: tuple[str, ...]


class FitProblem(NamedTuple):
    """One fit's inputs: normalized training rows and labels, the unlabeled
    test-side rows that DA methods read, and the fit's seed."""

    train_X: np.ndarray
    train_y: np.ndarray
    test_X: np.ndarray
    seed: int


def _each(fit_one):
    """A registry fit that fits the problems one at a time with
    `fit_one(method, train_X, train_y, test_X, seed)`, timing each."""

    def fit(method, problems):
        out = []
        for problem in problems:
            start = time.perf_counter()
            try:
                result = fit_one(method, *problem)
            except NormdaError as exc:
                result = exc
            out.append((result, time.perf_counter() - start))
        return out

    return fit


@_each
def _fit_svm(method, train_X, train_y, test_X, seed):
    return (svm_train(train_X, train_y, method.kernel, method.C, seed=seed),)


def _predict_svm(payload, X):
    return svm_predict(payload[0], X)


@_each
def _fit_tca_svm(method, train_X, train_y, test_X, seed):
    tca = tca_fit(train_X, test_X, method.kernel, method.dim, method.mu_reg)
    return tca, svm_train(tca_transform(tca, train_X), train_y, method.svm_kernel, method.C, seed=seed)


def _predict_tca_svm(payload, X):
    tca, svm = payload
    return svm_predict(svm, tca_transform(tca, X))


@_each
def _fit_kpca_svm(method, train_X, train_y, test_X, seed):
    pooled = np.vstack([train_X, test_X])
    kpca = kpca_fit(pooled, method.kernel, min(method.dim, pooled.shape[0]))
    return kpca, svm_train(kpca_transform(kpca, train_X), train_y, method.svm_kernel, method.C, seed=seed)


def _predict_kpca_svm(payload, X):
    kpca, svm = payload
    return svm_predict(svm, kpca_transform(kpca, X))


def _deep(train):
    """Adapt a network trainer to the registry's fit.

    `train(method, problems)` trains every FitProblem in one lockstep
    trainer call and returns one model or NormdaError per problem. Each
    problem's seconds are an equal share of the whole fit. The payload is
    (model,).
    """

    def fit(method, problems):
        start = time.perf_counter()
        results = train(method, problems)
        elapsed = time.perf_counter() - start
        return [(r if isinstance(r, NormdaError) else (r,), elapsed / len(problems)) for r in results]

    return fit


@_deep
def _fit_ann(method, problems):
    return train_plain(problems, method.train, method.hidden, method.feature_dim, method.activation)


@_deep
def _fit_dann(method, problems):
    return train_dann(problems, method.train, method.hidden, method.feature_dim, method.activation, method.lam)


@_deep
def _fit_adda(method, problems):
    return train_adda(problems, method.train, method.hidden, method.feature_dim, method.activation)


def _predict_deep(payload, X):
    return predict(payload[0], X)


# Column order of the strategy-by-method table: deep methods first.
METHODS = {
    "noDA-ANN": MethodEntry(_fit_ann, _predict_deep, (*ARCH_KEYS, "train")),
    "DANN": MethodEntry(_fit_dann, _predict_deep, (*ARCH_KEYS, "lam", "train")),
    "ADDA": MethodEntry(_fit_adda, _predict_deep, (*ARCH_KEYS, "train")),
    "noDA-SVM": MethodEntry(_fit_svm, _predict_svm, ("kernel", "C")),
    "TCA-SVM": MethodEntry(_fit_tca_svm, _predict_tca_svm, ("kernel", "dim", "mu_reg", "svm_kernel", "C")),
    "KPCA-SVM": MethodEntry(_fit_kpca_svm, _predict_kpca_svm, ("kernel", "dim", "svm_kernel", "C")),
}
METHOD_ORDER = tuple(METHODS)
DEEP_KINDS = ("noDA-ANN", "DANN", "ADDA")


# MethodSpec fields given in a config as nested dicts.
_NESTED_FIELDS = {"kernel": KernelSpec, "svm_kernel": KernelSpec, "train": TrainConfig}


@dataclass(frozen=True)
class MethodSpec:
    """One column of the benchmark table plus its hyperparameters.

    `kernel` drives the TCA/KPCA projection (and the SVM itself for
    noDA-SVM); `svm_kernel` is the downstream classifier kernel once data
    has been projected. `hidden`/`feature_dim`/`activation` shape the
    deep methods' networks (deep.network_specs), checked here at input
    width 1 and 2 classes because the real ones are known only per fold.
    Each kind reads only the fields its METHODS row names; the config
    rejects a non-default value of any other.
    """

    kind: str
    kernel: KernelSpec = KernelSpec("linear")
    svm_kernel: KernelSpec = KernelSpec("linear")
    dim: int = bounded(2, low=1)
    mu_reg: float = bounded(1.0, low=0, above=True)
    C: float = bounded(1.0, low=0, above=True)
    hidden: tuple[int, ...] = (16,)
    feature_dim: int = 8
    activation: str = "relu"
    lam: float = bounded(1.0, low=0)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.kind not in METHOD_ORDER:
            raise ConfigError(f"unknown method kind {self.kind!r}; expected one of {METHOD_ORDER}")
        check_field_types(self)
        for name, cls in _NESTED_FIELDS.items():
            check_type(getattr(self, name), name, cls)
        if not isinstance(self.hidden, (list, tuple)) or not all(
            isinstance(h, numbers.Integral) and not isinstance(h, bool) for h in self.hidden
        ):
            raise ConfigError(f"hidden must be a list of integers, got {self.hidden!r}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        network_specs(1, 2, self.hidden, self.feature_dim, self.activation)


# A grid may search every MethodSpec field but `kind` and `train`, and the
# TrainConfig fields, which overlay the method's `train`.
_TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig))
GRID_KEYS = (*(f.name for f in fields(MethodSpec) if f.name not in ("kind", "train")), *_TRAIN_KEYS)


def _check_reads(kind: str, names: Iterable[str], where: str) -> None:
    """Reject MethodSpec or TrainConfig field names that `kind` does not read."""
    reads = METHODS[kind].reads
    unread = [n for n in names if ("train" if n in _TRAIN_KEYS else n) not in reads]
    if unread:
        raise ConfigError(f"{kind} does not read {unread} (in its {where}); it reads only {list(reads)}")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: SyntheticShiftConfig | str | os.PathLike
    protocol: str = "loso"
    strategies: tuple[NormStrategy, ...] = (NormStrategy.NO_NORM, NormStrategy.Z2)
    methods: tuple[MethodSpec, ...] = (MethodSpec("noDA-SVM"),)
    grids: dict = field(default_factory=dict)
    seed: int = 0
    output_dir: str = "report"
    emit_projections: bool = False

    def __post_init__(self):
        check_field_types(self)
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        if not isinstance(self.dataset, (SyntheticShiftConfig, str, os.PathLike)):
            raise ConfigError(f"dataset must be a SyntheticShiftConfig or a CSV path, got {self.dataset!r}")
        if not self.strategies or not self.methods:
            raise ConfigError("strategies and methods must be nonempty")
        for name, cls in (("strategies", NormStrategy), ("methods", MethodSpec)):
            if not all(isinstance(v, cls) for v in getattr(self, name)):
                raise ConfigError(f"{name} must hold {cls.__name__} values, got {getattr(self, name)!r}")
        by_kind = {m.kind: m for m in self.methods}
        if len(by_kind) != len(self.methods):
            raise ConfigError("duplicate method kinds in config")
        if len(set(self.strategies)) != len(self.strategies):
            raise ConfigError("duplicate strategies in config")
        if not isinstance(self.grids, dict) or not all(isinstance(g, dict) for g in self.grids.values()):
            raise ConfigError("grids must map method kinds to {parameter: [values]} objects")
        unknown = sorted(set(self.grids) - set(by_kind))
        if unknown:
            raise ConfigError(f"grids for kinds not in methods: {unknown}; methods are {list(by_kind)}")
        for kind, grid in self.grids.items():
            for key, values in grid.items():
                if not isinstance(values, (list, tuple)) or not values:
                    raise ConfigError(
                        f"{kind} grid: no values for {[key]}; need a non-empty list, got {values!r}"
                    )
                for value in values:  # each value must make a valid spec
                    apply_grid_point(by_kind[kind], {key: value})
        for m in self.methods:
            default = MethodSpec(m.kind)
            changed = [f.name for f in fields(m) if getattr(m, f.name) != getattr(default, f.name)]
            _check_reads(m.kind, changed, "method fields")
        for kind, grid in self.grids.items():
            _check_reads(kind, grid, "grid")
        object.__setattr__(self, "strategies", tuple(self.strategies))
        object.__setattr__(self, "methods", tuple(self.methods))


@dataclass(frozen=True)
class CellResult:
    strategy: str
    method: str
    accuracies: tuple[float | None, ...]  # per fold; None for a failed fold
    error: str | None
    seconds: float

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def mean(self) -> float | None:
        return float(np.mean(self.accuracies)) if self.ok else None

    @property
    def std(self) -> float | None:
        return float(np.std(self.accuracies, ddof=0)) if self.ok else None


@dataclass(frozen=True)
class FoldOutcome:
    """One (strategy, method, fold) result: an accuracy, or an error."""

    strategy: str
    method: str
    fold_name: str
    accuracy: float | None
    error: str | None
    seconds: float


def table_order(row: FoldOutcome | CellResult) -> tuple[int, int]:
    """The order of every table and file: strategies in STRATEGY_ORDER,
    then methods in METHOD_ORDER."""
    return STRATEGY_ORDER.index(row.strategy), METHOD_ORDER.index(row.method)


def cells_from_rows(rows: Iterable[FoldOutcome]) -> tuple[CellResult, ...]:
    """One CellResult per (strategy, method) of the FoldOutcome rows, in
    table order, with its folds in row order. A cell with any failed fold
    is failed, and its error joins the fold errors; the folds that were
    scored keep their accuracies."""
    by_cell: dict[tuple[str, str], list[FoldOutcome]] = {}
    for row in sorted(rows, key=table_order):
        by_cell.setdefault((row.strategy, row.method), []).append(row)
    cells = []
    for (strategy, method), group in by_cell.items():
        errors = [o.error for o in group if o.error is not None]
        accuracies = tuple(o.accuracy for o in group)
        seconds = float(sum(o.seconds for o in group))
        cells.append(CellResult(strategy, method, accuracies, "; ".join(errors) or None, seconds))
    return tuple(cells)


@dataclass(frozen=True)
class ExperimentReport:
    """One run: the FoldOutcome of every (strategy, method, fold), of which
    every table and file is a view, and the dataset and folds it ran on,
    kept so projections reuse them instead of loading the data again."""

    config: ExperimentConfig
    rows: tuple[FoldOutcome, ...]
    dataset: DomainDataset = field(compare=False, repr=False)
    folds: tuple[Fold, ...] = field(compare=False, repr=False)

    @property
    def cells(self) -> tuple[CellResult, ...]:
        return cells_from_rows(self.rows)

    def cell(self, strategy: str, method: str) -> CellResult:
        for c in self.cells:
            if c.strategy == strategy and c.method == method:
                return c
        raise KeyError((strategy, method))


def format_cell(mean: float, std: float) -> str:
    """Render fractions as 'MM.MM (SS.SS)' percent, round half to even."""
    return f"{mean * 100:.2f} ({std * 100:.2f})"


def derive_seed(root: int, *parts) -> int:
    """Stable per-job seed from the root seed and job coordinates."""
    text = "|".join([str(root)] + [str(p) for p in parts])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


# ---------------------------------------------------------------------------
# Method fitting


@dataclass(frozen=True)
class FittedMethod:
    """A trained method: the payload its METHODS entry's fit returned."""

    kind: str
    payload: tuple

    def parameters(self) -> list[np.ndarray]:
        """Every array the payload holds, for bit-exact leakage audits."""
        out: list[np.ndarray] = []

        def collect(obj):
            if isinstance(obj, np.ndarray):
                out.append(obj)
            elif is_dataclass(obj):
                for f in fields(obj):
                    collect(getattr(obj, f.name))
            elif isinstance(obj, (tuple, list)):
                for item in obj:
                    collect(item)

        collect(self.payload)
        return out


def fit_method(
    method: MethodSpec, problems: list[FitProblem]
) -> list[tuple[FittedMethod | NormdaError, float]]:
    """Train one method on each problem (a normalized fold) through one
    registry call: the deep methods train them in lockstep.

    Returns per problem its FittedMethod, or the NormdaError that failed
    it, with the seconds its fit took; lockstep members share the call's
    time equally. DA methods receive the unlabeled test-side features;
    test labels are not part of a FitProblem, so fitting cannot read them.
    """
    return [
        (result if isinstance(result, NormdaError) else FittedMethod(method.kind, result), seconds)
        for result, seconds in METHODS[method.kind].fit(method, problems)
    ]


def predict_method(fitted: FittedMethod, X: np.ndarray) -> np.ndarray:
    return METHODS[fitted.kind].predict(fitted.payload, X)


# ---------------------------------------------------------------------------
# Grid search


def apply_grid_point(method: MethodSpec, point: dict) -> MethodSpec:
    """Overlay one grid point onto a method spec."""
    spec_updates: dict = {}
    train_updates: dict = {}
    for key, value in point.items():
        if key not in GRID_KEYS:
            raise ConfigError(f"unknown parameters {[key]}; searchable: {list(GRID_KEYS)}")
        if key in _NESTED_FIELDS and isinstance(value, dict):
            value = _from_dict(_NESTED_FIELDS[key], value, f"{key} fields")
        (train_updates if key in _TRAIN_KEYS else spec_updates)[key] = value
    if train_updates:
        spec_updates["train"] = replace(method.train, **train_updates)
    return replace(method, **spec_updates)


def grid_search(
    method: MethodSpec,
    grid: dict,
    Xtr: np.ndarray,
    ytr: np.ndarray,
    Xval: np.ndarray,
    yval: np.ndarray,
    target_X: np.ndarray,
    seed: int,
) -> MethodSpec:
    """Pick the grid point with the best validation accuracy.

    Each point is fit on (Xtr, ytr), with target_X as the DA methods'
    unlabeled target rows. Points are scored in declared order and ties
    keep the earliest; points that are rejected or fail to fit rank below
    every success. All points failing is an error that aggregates the
    individual messages.
    """
    keys = list(grid.keys())
    best: tuple[float, MethodSpec] | None = None
    failures: list[str] = []
    for values in itertools.product(*(grid[k] for k in keys)):
        try:
            candidate = apply_grid_point(method, dict(zip(keys, values)))
            [(fitted, _)] = fit_method(candidate, [FitProblem(Xtr, ytr, target_X, seed)])
            if isinstance(fitted, NormdaError):
                raise fitted
            score = accuracy(predict_method(fitted, Xval), yval)
        except NormdaError as exc:  # failed points lose to any finite result
            failures.append(f"{dict(zip(keys, values))}: {exc}")
            continue
        if best is None or score > best[0]:
            best = (score, candidate)
    if best is None:
        raise ExperimentError(
            f"all {method.kind} grid points failed: " + "; ".join(failures)
        )
    return best[1]


# ---------------------------------------------------------------------------
# The harness


def resolve_dataset(cfg: ExperimentConfig) -> DomainDataset:
    if isinstance(cfg.dataset, SyntheticShiftConfig):
        return generate_synthetic(cfg.dataset)
    return load_csv(cfg.dataset)


def resolve_fold_specs(
    method: MethodSpec,
    grid: dict,
    pinned: dict,
    train_X: np.ndarray,
    train_y: np.ndarray,
    test_X: np.ndarray,
    seed: int,
) -> MethodSpec:
    """One method's spec for one fold, with the architecture-fairness rule.

    `pinned` is the architecture DANN's grid search chose on this fold, or
    empty. When it is set, it replaces noDA-ANN's and ADDA's own
    architecture and the grid drops its architecture keys, so the three
    deep methods share one shape. The rest of the grid is searched on a
    stratified split of the training rows.
    """
    if pinned:
        grid = {k: v for k, v in grid.items() if k not in ARCH_KEYS}
        if method.kind in DEEP_KINDS:
            method = replace(method, **pinned)
    if not grid:
        return method
    try:
        tr, val = stratified_indices(train_y, seed)
        return grid_search(
            method, grid, train_X[tr], train_y[tr], train_X[val], train_y[val], test_X, seed
        )
    except NormdaError as exc:
        raise ExperimentError(f"grid search failed: {exc}") from exc


def _run_fold_group(
    ds: DomainDataset,
    groups: list[tuple[NormStrategy, Fold]],
    methods: tuple[MethodSpec, ...],
    grids: dict,
    root_seed: int,
) -> list[FoldOutcome]:
    """All methods on a list of (strategy, fold) cell groups, method by method.

    Each group is normalized once. DANN goes first: when its grid searches
    the architecture, each group's winner is pinned onto the deep methods
    resolved after it. Each method's spec is resolved per group, and the
    groups that resolve to one spec are fit through one fit_method call,
    so the deep methods train them in lockstep. Outcomes come back group
    by group, each group's in `methods` order. A method's seconds cover
    its grid search, its share of the fit and its prediction.
    """
    outcomes: dict[tuple[int, str], FoldOutcome] = {}
    normalized = []
    for gi, (strategy, fold) in enumerate(groups):
        try:
            train_X, test_X = apply_strategy(ds, fold, strategy)
        except NormdaError as exc:
            msg = f"fold={fold.name} strategy={strategy.value}: {exc}"
            for m in methods:
                outcomes[gi, m.kind] = FoldOutcome(strategy.value, m.kind, fold.name, None, msg, 0.0)
            continue
        train_y, test_y = ds.labels[fold.train_idx], ds.labels[fold.test_idx]
        normalized.append((gi, strategy, fold, train_X, train_y, test_X, test_y))

    pinned: dict[int, dict] = {}
    for method in sorted(methods, key=lambda m: m.kind != "DANN"):
        grid = grids.get(method.kind, {})
        by_spec: dict[MethodSpec, list] = {}
        fitted = []  # (group, FittedMethod or NormdaError, seconds so far)
        for group in normalized:
            gi, strategy, fold, train_X, train_y, test_X, _ = group
            seed = derive_seed(root_seed, strategy.value, method.kind, fold.name)
            start = time.perf_counter()
            try:
                spec = resolve_fold_specs(method, grid, pinned.get(gi, {}), train_X, train_y, test_X, seed)
            except NormdaError as exc:
                fitted.append((group, exc, time.perf_counter() - start))
                continue
            if method.kind == "DANN" and any(k in ARCH_KEYS for k in grid):
                pinned[gi] = {k: getattr(spec, k) for k in ARCH_KEYS}
            by_spec.setdefault(spec, []).append((group, seed, time.perf_counter() - start))
        for spec, members in by_spec.items():
            fits = fit_method(spec, [FitProblem(*group[3:6], seed) for group, seed, _ in members])
            for (group, _, search_s), (fit, fit_s) in zip(members, fits):
                fitted.append((group, fit, search_s + fit_s))
        for (gi, strategy, fold, _, _, test_X, test_y), fit, seconds in fitted:
            start = time.perf_counter()
            acc, error = None, None
            try:
                if isinstance(fit, NormdaError):
                    raise fit
                acc = accuracy(predict_method(fit, test_X), test_y)
            except NormdaError as exc:
                error = f"fold={fold.name} strategy={strategy.value} method={method.kind}: {exc}"
            seconds += time.perf_counter() - start
            outcome = FoldOutcome(strategy.value, method.kind, fold.name, acc, error, seconds)
            outcomes[gi, method.kind] = outcome
    return [outcomes[gi, m.kind] for gi in range(len(groups)) for m in methods]


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Run the full strategy-by-method grid over the protocol's folds on
    `jobs` worker processes (1: in this process).

    The (strategy, fold) groups, fold-major, are cut into at most `jobs`
    runs of consecutive groups, one task each. Each task carries the
    dataset once, and keeps each fold's strategies together so that its
    same-shape deep fits train in lockstep.
    """
    check_type(cfg, "cfg", ExperimentConfig)
    check_type(jobs, "jobs", "int", low=1)
    ds = resolve_dataset(cfg)
    folds = folds_for(ds, cfg.protocol)
    groups = [(strategy, fold) for fold in folds for strategy in cfg.strategies]
    size = -(-len(groups) // jobs)
    tasks = [
        (ds, groups[i : i + size], cfg.methods, cfg.grids, cfg.seed) for i in range(0, len(groups), size)
    ]

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            futures = [pool.submit(_run_fold_group, *task) for task in tasks]
            outcome_lists = [f.result() for f in futures]
    else:
        outcome_lists = [_run_fold_group(*task) for task in tasks]

    rows = tuple(o for outcomes in outcome_lists for o in outcomes)
    return ExperimentReport(cfg, rows, ds, tuple(folds))


# ---------------------------------------------------------------------------
# Rendering and persistence


def emit_table(cells: Iterable[CellResult]) -> str:
    """The markdown strategy-by-method accuracy table of cells in table
    order: one row per strategy, one column per method (deep first), cells
    'MM.MM (SS.SS)' in percent, 'FAIL' for failed cells."""
    by_strategy: dict[str, list[CellResult]] = {}
    for c in cells:
        by_strategy.setdefault(c.strategy, []).append(c)
    methods = [c.method for c in next(iter(by_strategy.values()), [])]
    lines = ["| strategy | " + " | ".join(methods) + " |"]
    lines.append("| --- |" + " --- |" * len(methods))
    for strategy, row in by_strategy.items():
        marks = [format_cell(c.mean, c.std) if c.ok else "FAIL" for c in row]
        lines.append("| " + " | ".join([strategy, *marks]) + " |")
    return "\n".join(lines) + "\n"


def report_csv(cells: Iterable[CellResult]) -> str:
    """report.csv: one line per cell, with full-precision mean/std fractions
    that reload as reals."""
    lines = ["strategy,method,n_folds,mean,std,status"]
    for c in cells:
        head = f"{c.strategy},{c.method},{len(c.accuracies)}"
        lines.append(f"{head},{c.mean!r},{c.std!r},ok" if c.ok else f"{head},,,FAIL")
    return "\n".join(lines) + "\n"


FOLDS_CSV = "folds.csv"  # a report's per-fold detail; `normda table` reads it back
_FOLDS_HEADER = "strategy,method,fold,accuracy"


def folds_csv(rows: Iterable[FoldOutcome]) -> str:
    """The records in table order, one line each: the accuracy at full
    precision, or FAIL for a failed fold."""
    lines = [_FOLDS_HEADER]
    for o in sorted(rows, key=table_order):
        acc = "FAIL" if o.accuracy is None else repr(o.accuracy)
        lines.append(f"{o.strategy},{o.method},{o.fold_name},{acc}")
    return "\n".join(lines) + "\n"


def rows_from_folds_csv(text: str) -> list[FoldOutcome]:
    """One FoldOutcome per line of a folds_csv text; a FAIL fold is an error.
    Any line the writer could not have produced, or a (strategy, method,
    fold) it would have written that has no line, is a ConfigError naming it."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != _FOLDS_HEADER:
        raise ConfigError(f"expected the header {_FOLDS_HEADER!r}")
    rows: dict[tuple[str, str, str], FoldOutcome] = {}
    for number, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 4:
            raise ConfigError(f"line {number}: expected 4 fields, got {len(parts)}")
        strategy, method, fold, acc = parts
        if strategy not in STRATEGY_ORDER:
            raise ConfigError(f"line {number}: unknown strategy {strategy!r}")
        if method not in METHOD_ORDER:
            raise ConfigError(f"line {number}: unknown method {method!r}")
        if (strategy, method, fold) in rows:
            raise ConfigError(f"line {number}: duplicate row for {strategy}/{method} fold {fold}")
        parsed = parse_numbers([acc])  # None for FAIL
        if acc != "FAIL" and (parsed is None or not 0.0 <= parsed[0] <= 1.0):
            raise ConfigError(f"line {number}: accuracy {acc!r} is not FAIL or a number in [0, 1]")
        value = parsed[0] if parsed else None
        rows[strategy, method, fold] = FoldOutcome(
            strategy, method, fold, value, "FAIL" if value is None else None, 0.0
        )
    if not rows:
        raise ConfigError("no rows after the header")
    strategies, methods, folds = ({key[i] for key in rows} for i in range(3))
    missing = sorted(set(itertools.product(strategies, methods, folds)) - set(rows))
    if missing:
        raise ConfigError("no rows for " + ", ".join(f"{s}/{m} fold {f}" for s, m, f in missing))
    return list(rows.values())


def emit_projection(ds: DomainDataset, fold: Fold, strategy: NormStrategy) -> list[dict]:
    """Project a fold's normalized rows to 2-D via the top two principal
    components of the combined train+test matrix."""
    train_X, test_X = apply_strategy(ds, fold, strategy)
    combined = np.vstack([train_X, test_X])
    idx = np.concatenate([fold.train_idx, fold.test_idx])
    split = ["train"] * len(fold.train_idx) + ["test"] * len(fold.test_idx)

    centered = combined - combined.mean(axis=0, keepdims=True)
    try:
        _, s_vals, vt = np.linalg.svd(centered, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"projection SVD failed: {exc}") from exc
    if s_vals.size == 0 or s_vals[0] <= 1e-12:
        raise DegenerateDataError("projection input has no variance")
    axes = _fix_signs(vt[: min(2, vt.shape[0])].T).T
    scores = centered @ axes.T
    if scores.shape[1] < 2:
        scores = np.hstack([scores, np.zeros((scores.shape[0], 1))])

    order = np.argsort(idx, kind="stable")
    rows = []
    for pos in order:
        i = int(idx[pos])
        rows.append(
            {
                "x": float(scores[pos, 0]),
                "y": float(scores[pos, 1]),
                "subject": int(ds.subjects[i]),
                "session": int(ds.sessions[i]),
                "split": split[pos],
                "label": int(ds.labels[i]),
            }
        )
    return rows


def projection_csv(rows: list[dict]) -> str:
    lines = ["x,y,subject,session,split,label"]
    for r in rows:
        lines.append(
            f"{r['x']!r},{r['y']!r},{r['subject']},{r['session']},{r['split']},{r['label']}"
        )
    return "\n".join(lines) + "\n"


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """JSON-ready echo of a config; config_from_dict reads it back."""
    out = asdict(cfg)
    if isinstance(cfg.dataset, SyntheticShiftConfig):
        out["dataset"] = {"synthetic": out["dataset"]}
    else:
        out["dataset"] = {"csv": str(cfg.dataset)}
    out["strategies"] = [s.value for s in cfg.strategies]
    return out


def _check_keys(raw: dict, cls, what: str) -> None:
    if not isinstance(raw, dict):
        raise ConfigError(f"{what}: expected an object, got {raw!r}")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {what}: {unknown}")


def _from_dict(cls, raw: dict, what: str, nested: dict | None = None):
    """A `cls` from the object `raw`, whose keys must be fields of `cls`; an
    omitted field takes its default, and a `nested` field is read into its class."""
    _check_keys(raw, cls, what)
    nested = nested or {}
    return cls(**{k: _from_dict(nested[k], v, f"{k} fields") if k in nested else v for k, v in raw.items()})


def synthetic_from_dict(raw: dict) -> SyntheticShiftConfig:
    return _from_dict(SyntheticShiftConfig, raw, "synthetic fields")


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Read a config_to_dict-shaped dict; a key it omits takes the
    ExperimentConfig default."""
    _check_keys(raw, ExperimentConfig, "config keys")
    ds_raw = raw.get("dataset", {})
    if not isinstance(ds_raw, dict) or set(ds_raw) not in ({"synthetic"}, {"csv"}):
        raise ConfigError("config needs a 'dataset' entry with exactly one of 'synthetic' or 'csv'")
    if "synthetic" in ds_raw:
        dataset: SyntheticShiftConfig | str = synthetic_from_dict(ds_raw["synthetic"])
    elif isinstance(ds_raw["csv"], str):
        dataset = ds_raw["csv"]
    else:
        raise ConfigError(f"dataset 'csv' must be a path string, got {ds_raw['csv']!r}")
    parsed = dict(raw, dataset=dataset)
    for key in ("methods", "strategies"):
        if not isinstance(raw.get(key, []), (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {raw[key]!r}")

    if "methods" in raw:
        methods = []
        for i, m in enumerate(raw["methods"]):
            if isinstance(m, dict) and "kind" not in m:
                raise ConfigError(f"method {i} has no 'kind'; expected one of {METHOD_ORDER}")
            methods.append(_from_dict(MethodSpec, m, "method fields", _NESTED_FIELDS))
        parsed["methods"] = tuple(methods)
    if "strategies" in raw:
        parsed["strategies"] = tuple(NormStrategy.from_name(s) for s in raw["strategies"])
    return ExperimentConfig(**parsed)


def write_report(report: ExperimentReport, outdir) -> Path:
    """Write report.md, report.csv, folds.csv, config.json and projections;
    report.md lists each projection a strategy rejects instead."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cells = report.cells
    (outdir / "report.csv").write_text(report_csv(cells), encoding="utf-8")
    (outdir / FOLDS_CSV).write_text(folds_csv(report.rows), encoding="utf-8")
    (outdir / "config.json").write_text(
        json.dumps(config_to_dict(report.config), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    skipped = []  # "* " bullets: tools reading report.md take "- " lines for cell timings
    if report.config.emit_projections:
        for strategy in report.config.strategies:
            for fold in report.folds:
                name = f"projection_{strategy.value}_{fold.name}.csv"
                try:
                    rows = emit_projection(report.dataset, fold, strategy)
                except NormdaError as exc:
                    skipped.append(f"* {name}: {exc}")
                    continue
                (outdir / name).write_text(projection_csv(rows), encoding="utf-8")

    md = ["# Experiment report", ""]
    md.append(f"- protocol: {report.config.protocol}")
    md.append(f"- seed: {report.config.seed}")
    md.append(f"- folds: {', '.join(f.name for f in report.folds)}")
    md.append("- projection method: PCA (top 2 components)")
    md.append("")
    md.append(emit_table(cells))
    md.append("## Cell timings (seconds)")
    md.append("")
    for cell in cells:
        md.append(f"- {cell.strategy} / {cell.method}: {cell.seconds:.3f}")
        if not cell.ok:
            md.append(f"  - FAILED: {cell.error}")
    if skipped:
        md += ["", "## Skipped projections", "", *skipped]
    (outdir / "report.md").write_text("\n".join(md) + "\n", encoding="utf-8")
    return outdir
