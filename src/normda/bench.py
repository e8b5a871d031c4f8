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
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .dataset import (
    VAL_FRACTION,
    DomainDataset,
    Fold,
    SyntheticShiftConfig,
    accuracy,
    generate_synthetic,
    hlso_folds,
    load_csv,
    loso_folds,
    stratified_indices,
)
from .deep import (
    MlpSpec,
    TrainConfig,
    make_adda,
    make_dann,
    predict_composite,
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
    check_field_types,
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
from .svm import SvmModel, svm_predict, svm_train

STRATEGY_ORDER = ("noNorm", "Z0", "Z1", "Z2", "Z3", "MinMax")
ARCH_KEYS = ("hidden", "feature_dim", "activation")
# The hyperparameters a grid may search. TrainConfig fields overlay the
# method's `train`, `gamma` sets the gamma of its `kernel`, and the rest
# replace the MethodSpec field of the same name.
GRID_KEYS = (
    "C", "dim", "mu_reg", "lam", *ARCH_KEYS, "kernel", "svm_kernel", "gamma",
    "learning_rate", "batch_size", "max_epochs", "patience",
)


# ---------------------------------------------------------------------------
# Method registry
#
# Each method kind is one row of METHODS: fit(spec, train_X, train_y,
# test_X, seed) returns a payload tuple and predict(payload, X) labels rows.
# The entries call svm_train, tca_fit, train_dann and the rest through this
# module's globals, so rebinding those names (as tests and tracing do)
# reaches every fit and predict.


class MethodEntry(NamedTuple):
    fit: Callable[..., tuple]
    predict: Callable[[tuple, np.ndarray], np.ndarray]


def _svm(method: MethodSpec, kernel: KernelSpec, X: np.ndarray, y: np.ndarray, seed: int) -> SvmModel:
    return svm_train(X, y, kernel, method.C, seed=seed)


def _fit_svm(method, train_X, train_y, test_X, seed):
    return (_svm(method, method.kernel, train_X, train_y, seed),)


def _predict_svm(payload, X):
    return svm_predict(payload[0], X)


def _fit_tca_svm(method, train_X, train_y, test_X, seed):
    tca = tca_fit(train_X, test_X, method.kernel, method.dim, method.mu_reg)
    return tca, _svm(method, method.svm_kernel, tca_transform(tca, train_X), train_y, seed)


def _predict_tca_svm(payload, X):
    tca, svm = payload
    return svm_predict(svm, tca_transform(tca, X))


def _fit_kpca_svm(method, train_X, train_y, test_X, seed):
    pooled = np.vstack([train_X, test_X])
    kpca = kpca_fit(pooled, method.kernel, min(method.dim, pooled.shape[0]))
    return kpca, _svm(method, method.svm_kernel, kpca_transform(kpca, train_X), train_y, seed)


def _predict_kpca_svm(payload, X):
    kpca, svm = payload
    return svm_predict(svm, kpca_transform(kpca, X))


def _deep(train):
    """Adapt a network trainer to the registry's fit signature.

    `train(method, X, y, test_X, seed, extractor, predictor, adversary)`
    sees labels remapped to 0..k-1, this fit's seed, and the MLP specs the
    method's shape asks for. The payload is (model, original class labels).
    """

    def fit(method, train_X, train_y, test_X, seed):
        classes = tuple(sorted({int(v) for v in train_y}))
        remap = {c: i for i, c in enumerate(classes)}
        y_pos = np.array([remap[int(v)] for v in train_y], dtype=np.int64)
        extractor = MlpSpec(
            (train_X.shape[1], *method.hidden, method.feature_dim), method.activation, head="identity"
        )
        predictor = MlpSpec((method.feature_dim, len(classes)), method.activation, head="softmax")
        adversary = MlpSpec((method.feature_dim, 2), method.activation, head="softmax")
        return train(method, train_X, y_pos, test_X, seed, extractor, predictor, adversary), classes

    return fit


@_deep
def _fit_ann(method, X, y, test_X, seed, extractor, predictor, adversary):
    return train_plain(X, y, method.train, extractor, predictor, seed)


@_deep
def _fit_dann(method, X, y, test_X, seed, extractor, predictor, adversary):
    model = make_dann(extractor, predictor, adversary, method.lam, seed)
    return train_dann(X, y, test_X, method.train, model, seed)


@_deep
def _fit_adda(method, X, y, test_X, seed, extractor, predictor, adversary):
    return train_adda(X, y, test_X, method.train, make_adda(extractor, predictor, adversary, seed), seed)


def _predict_ann(payload, X):
    """noDA-ANN and DANN: the extractor feeds the label predictor."""
    model, classes = payload
    return np.asarray(classes, dtype=np.int64)[predict_composite(model.extractor, model.predictor, X)]


def _predict_adda(payload, X):
    model, classes = payload
    return np.asarray(classes, dtype=np.int64)[predict_composite(model.target_encoder, model.classifier, X)]


# Column order of the strategy-by-method table: deep methods first.
METHODS = {
    "noDA-ANN": MethodEntry(_fit_ann, _predict_ann),
    "DANN": MethodEntry(_fit_dann, _predict_ann),
    "ADDA": MethodEntry(_fit_adda, _predict_adda),
    "noDA-SVM": MethodEntry(_fit_svm, _predict_svm),
    "TCA-SVM": MethodEntry(_fit_tca_svm, _predict_tca_svm),
    "KPCA-SVM": MethodEntry(_fit_kpca_svm, _predict_kpca_svm),
}
METHOD_ORDER = tuple(METHODS)


@dataclass(frozen=True)
class MethodSpec:
    """One column of the benchmark table plus its hyperparameters.

    `kernel` drives the TCA/KPCA projection (and the SVM itself for
    noDA-SVM); `svm_kernel` is the downstream classifier kernel once data
    has been projected. `hidden`/`feature_dim`/`activation` shape the
    network components of the deep methods, checked here at input width 1
    because the real width is known only per fold.
    """

    kind: str
    kernel: KernelSpec = KernelSpec("linear")
    svm_kernel: KernelSpec = KernelSpec("linear")
    dim: int = 2
    mu_reg: float = 1.0
    C: float = 1.0
    hidden: tuple[int, ...] = (16,)
    feature_dim: int = 8
    activation: str = "relu"
    lam: float = 1.0
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.kind not in METHOD_ORDER:
            raise ConfigError(f"unknown method kind {self.kind!r}; expected one of {METHOD_ORDER}")
        check_field_types(self)
        for name in ("kernel", "svm_kernel"):
            if not isinstance(getattr(self, name), KernelSpec):
                raise ConfigError(f"{name} must be a KernelSpec, got {getattr(self, name)!r}")
        if not isinstance(self.hidden, (list, tuple)) or not all(
            isinstance(h, numbers.Integral) and not isinstance(h, bool) for h in self.hidden
        ):
            raise ConfigError(f"hidden must be a list of integers, got {self.hidden!r}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        MlpSpec((1, *self.hidden, self.feature_dim), self.activation, head="identity")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: SyntheticShiftConfig | str
    protocol: str = "loso"
    strategies: tuple[NormStrategy, ...] = (NormStrategy.NO_NORM, NormStrategy.Z2)
    methods: tuple[MethodSpec, ...] = (MethodSpec("noDA-SVM"),)
    grids: dict = field(default_factory=dict)
    seed: int = 0
    output_dir: str = "report"
    emit_projections: bool = False

    def __post_init__(self):
        check_field_types(self)
        if self.protocol not in ("loso", "hlso"):
            raise ConfigError(f"protocol must be 'loso' or 'hlso', got {self.protocol!r}")
        if not self.strategies or not self.methods:
            raise ConfigError("strategies and methods must be nonempty")
        by_kind = {m.kind: m for m in self.methods}
        if len(by_kind) != len(self.methods):
            raise ConfigError("duplicate method kinds in config")
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
        object.__setattr__(self, "strategies", tuple(self.strategies))
        object.__setattr__(self, "methods", tuple(self.methods))


@dataclass(frozen=True)
class CellResult:
    strategy: str
    method: str
    fold_names: tuple[str, ...]
    accuracies: tuple[float, ...] | None
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
class ExperimentReport:
    """The cells of one run; `dataset` and `folds` are what it ran on, kept
    so projections reuse them instead of loading the data again."""

    config: ExperimentConfig
    fold_names: tuple[str, ...]
    cells: tuple[CellResult, ...]
    dataset: DomainDataset | None = field(default=None, compare=False, repr=False)
    folds: tuple[Fold, ...] = field(default=(), compare=False, repr=False)

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
    method: MethodSpec,
    train_X: np.ndarray,
    train_y: np.ndarray,
    test_X: np.ndarray,
    seed: int,
) -> FittedMethod:
    """Train one method on a normalized fold.

    DA methods receive the unlabeled test-side features; test labels are
    not part of the signature, so fitting cannot read them.
    """
    return FittedMethod(method.kind, METHODS[method.kind].fit(method, train_X, train_y, test_X, seed))


def predict_method(fitted: FittedMethod, X: np.ndarray) -> np.ndarray:
    return METHODS[fitted.kind].predict(fitted.payload, X)


# ---------------------------------------------------------------------------
# Grid search


def apply_grid_point(method: MethodSpec, point: dict) -> MethodSpec:
    """Overlay one grid point onto a method spec."""
    train_fields = {f.name for f in fields(TrainConfig)}
    spec_updates: dict = {}
    train_updates: dict = {}
    for key, value in point.items():
        if key not in GRID_KEYS:
            raise ConfigError(f"unknown parameters {[key]}; searchable: {list(GRID_KEYS)}")
        if key in train_fields:
            train_updates[key] = value
        elif key == "gamma":
            spec_updates["kernel"] = KernelSpec(method.kernel.kind, value)
        elif key in ("kernel", "svm_kernel") and isinstance(value, dict):
            spec_updates[key] = KernelSpec(**value)
        else:
            spec_updates[key] = value
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
    target_X: np.ndarray | None = None,
    seed: int = 0,
) -> MethodSpec:
    """Pick the grid point with the best validation accuracy.

    Points are scored in declared order and ties keep the earliest; points
    that fail to fit rank below every success. All points failing is an
    error that aggregates the individual messages.
    """
    keys = list(grid.keys())
    target = target_X if target_X is not None else Xval
    best: tuple[float, MethodSpec] | None = None
    failures: list[str] = []
    for values in itertools.product(*(grid[k] for k in keys)):
        candidate = apply_grid_point(method, dict(zip(keys, values)))
        try:
            fitted = fit_method(candidate, Xtr, ytr, target, seed)
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


@dataclass(frozen=True)
class _FoldOutcome:
    strategy: str
    method: str
    fold_name: str
    accuracy: float | None
    error: str | None
    seconds: float


def resolve_dataset(cfg: ExperimentConfig) -> DomainDataset:
    if isinstance(cfg.dataset, SyntheticShiftConfig):
        return generate_synthetic(cfg.dataset)
    return load_csv(cfg.dataset)


def folds_for(ds: DomainDataset, protocol: str) -> list[Fold]:
    return loso_folds(ds) if protocol == "loso" else hlso_folds(ds)


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
        if method.kind in ("noDA-ANN", "ADDA"):
            method = replace(method, **pinned)
    if not grid:
        return method
    try:
        tr, val = stratified_indices(train_y, VAL_FRACTION, seed)
        return grid_search(
            method, grid, train_X[tr], train_y[tr], train_X[val], train_y[val],
            target_X=test_X, seed=seed,
        )
    except NormdaError as exc:
        raise ExperimentError(f"grid search failed: {exc}") from exc


def _run_fold_group(
    ds: DomainDataset,
    fold: Fold,
    strategy: NormStrategy,
    methods: tuple[MethodSpec, ...],
    grids: dict,
    root_seed: int,
) -> list[_FoldOutcome]:
    """All methods on one (strategy, fold) cell group over shared normalization.

    DANN goes first: when its grid searches the architecture, the winner
    is pinned onto the deep methods resolved after it. A method's seconds
    cover its grid search, fit and prediction.
    """
    try:
        train_X, test_X = apply_strategy(ds, fold, strategy)
    except NormdaError as exc:
        msg = f"fold={fold.name} strategy={strategy.value}: {exc}"
        return [
            _FoldOutcome(strategy.value, m.kind, fold.name, None, msg, 0.0) for m in methods
        ]
    train_y = ds.labels[fold.train_idx]
    test_y = ds.labels[fold.test_idx]

    pinned: dict = {}
    outcomes = []
    for method in sorted(methods, key=lambda m: m.kind != "DANN"):
        seed = derive_seed(root_seed, strategy.value, method.kind, fold.name)
        grid = grids.get(method.kind, {})
        start = time.perf_counter()
        acc, error = None, None
        try:
            spec = resolve_fold_specs(method, grid, pinned, train_X, train_y, test_X, seed)
            if method.kind == "DANN" and any(k in ARCH_KEYS for k in grid):
                pinned = {k: getattr(spec, k) for k in ARCH_KEYS}
            fitted = fit_method(spec, train_X, train_y, test_X, seed)
            acc = accuracy(predict_method(fitted, test_X), test_y)
        except NormdaError as exc:
            error = f"fold={fold.name} strategy={strategy.value} method={method.kind}: {exc}"
        seconds = time.perf_counter() - start
        outcomes.append(_FoldOutcome(strategy.value, method.kind, fold.name, acc, error, seconds))
    return outcomes


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Run the full strategy-by-method grid over the protocol's folds."""
    ds = resolve_dataset(cfg)
    folds = folds_for(ds, cfg.protocol)
    groups = [(strategy, fold) for strategy in cfg.strategies for fold in folds]

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_run_fold_group, ds, fold, strategy, cfg.methods, cfg.grids, cfg.seed)
                for strategy, fold in groups
            ]
            outcome_lists = [f.result() for f in futures]
    else:
        outcome_lists = [
            _run_fold_group(ds, fold, strategy, cfg.methods, cfg.grids, cfg.seed)
            for strategy, fold in groups
        ]

    by_cell: dict[tuple[str, str], list[_FoldOutcome]] = {}
    for outcomes in outcome_lists:
        for o in outcomes:
            by_cell.setdefault((o.strategy, o.method), []).append(o)

    fold_names = tuple(f.name for f in folds)
    cells = []
    for strategy in cfg.strategies:
        for method in cfg.methods:
            ordered = sorted(
                by_cell[(strategy.value, method.kind)], key=lambda o: fold_names.index(o.fold_name)
            )
            errors = [o.error for o in ordered if o.error is not None]
            cells.append(
                CellResult(
                    strategy.value,
                    method.kind,
                    fold_names,
                    None if errors else tuple(o.accuracy for o in ordered),
                    "; ".join(errors) or None,
                    float(sum(o.seconds for o in ordered)),
                )
            )
    return ExperimentReport(cfg, fold_names, tuple(cells), ds, tuple(folds))


# ---------------------------------------------------------------------------
# Rendering and persistence


def _ordered(report: ExperimentReport) -> tuple[list[str], list[str]]:
    strategies = [s for s in STRATEGY_ORDER if any(c.strategy == s for c in report.cells)]
    methods = [m for m in METHOD_ORDER if any(c.method == m for c in report.cells)]
    return strategies, methods


def emit_table(report: ExperimentReport, fmt: str = "markdown") -> str:
    """Render the strategy-by-method accuracy table.

    markdown: rows are strategies, columns methods (deep first), cells
    'MM.MM (SS.SS)' in percent, 'FAIL' for failed cells. csv: long format
    with full-precision mean/std fractions that reload as reals.
    """
    strategies, methods = _ordered(report)
    if fmt == "markdown":
        lines = ["| strategy | " + " | ".join(methods) + " |"]
        lines.append("| --- |" + " --- |" * len(methods))
        for s in strategies:
            row = [s]
            for m in methods:
                cell = report.cell(s, m)
                row.append(format_cell(cell.mean, cell.std) if cell.ok else "FAIL")
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        lines = ["strategy,method,n_folds,mean,std,status"]
        for s in strategies:
            for m in methods:
                cell = report.cell(s, m)
                if cell.ok:
                    lines.append(f"{s},{m},{len(cell.fold_names)},{cell.mean!r},{cell.std!r},ok")
                else:
                    lines.append(f"{s},{m},{len(cell.fold_names)},,,FAIL")
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown table format {fmt!r}")


def folds_csv(report: ExperimentReport) -> str:
    """Per-fold accuracy detail at full precision."""
    lines = ["strategy,method,fold,accuracy"]
    strategies, methods = _ordered(report)
    for s in strategies:
        for m in methods:
            cell = report.cell(s, m)
            for i, fold in enumerate(cell.fold_names):
                value = repr(cell.accuracies[i]) if cell.ok else "FAIL"
                lines.append(f"{s},{m},{fold},{value}")
    return "\n".join(lines) + "\n"


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


# MethodSpec fields given in a config as nested dicts.
_NESTED_FIELDS = {"kernel": KernelSpec, "svm_kernel": KernelSpec, "train": TrainConfig}


def _check_keys(raw: dict, cls, what: str) -> None:
    if not isinstance(raw, dict):
        raise ConfigError(f"{what}: expected an object, got {raw!r}")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {what}: {unknown}")


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Read a config_to_dict-shaped dict; a key it omits takes the
    ExperimentConfig default."""
    _check_keys(raw, ExperimentConfig, "config keys")
    ds_raw = raw.get("dataset", {})
    if not isinstance(ds_raw, dict) or set(ds_raw) not in ({"synthetic"}, {"csv"}):
        raise ConfigError("config needs a 'dataset' entry with exactly one of 'synthetic' or 'csv'")
    if "synthetic" in ds_raw:
        _check_keys(ds_raw["synthetic"], SyntheticShiftConfig, "synthetic fields")
        dataset: SyntheticShiftConfig | str = SyntheticShiftConfig(**ds_raw["synthetic"])
    else:
        dataset = str(ds_raw["csv"])
    parsed = dict(raw, dataset=dataset)
    for key in ("methods", "strategies"):
        if not isinstance(raw.get(key, []), (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {raw[key]!r}")

    if "methods" in raw:
        methods = []
        for m in raw["methods"]:
            _check_keys(m, MethodSpec, "method fields")
            nested = {}
            for k, cls in _NESTED_FIELDS.items():
                if k in m:
                    _check_keys(m[k], cls, f"{k} fields")
                    nested[k] = cls(**m[k])
            methods.append(MethodSpec(**{**m, **nested}))
        parsed["methods"] = tuple(methods)
    if "strategies" in raw:
        parsed["strategies"] = tuple(NormStrategy.from_name(s) for s in raw["strategies"])
    return ExperimentConfig(**parsed)


def write_report(report: ExperimentReport, outdir) -> Path:
    """Write report.md, report.csv, folds.csv, config.json and projections;
    report.md lists each projection a strategy rejects instead."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.csv").write_text(emit_table(report, "csv"), encoding="utf-8")
    (outdir / "folds.csv").write_text(folds_csv(report), encoding="utf-8")
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
    md.append(f"- folds: {', '.join(report.fold_names)}")
    md.append("- projection method: PCA (top 2 components)")
    md.append("")
    md.append(emit_table(report, "markdown"))
    md.append("## Cell timings (seconds)")
    md.append("")
    for cell in report.cells:
        md.append(f"- {cell.strategy} / {cell.method}: {cell.seconds:.3f}")
        if not cell.ok:
            md.append(f"  - FAILED: {cell.error}")
    if skipped:
        md += ["", "## Skipped projections", "", *skipped]
    (outdir / "report.md").write_text("\n".join(md) + "\n", encoding="utf-8")
    return outdir
