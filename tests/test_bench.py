import ast
import importlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from normda.bench import (
    ExperimentConfig,
    FitProblem,
    MethodSpec,
    accuracy,
    apply_grid_point,
    cells_from_rows,
    config_from_dict,
    config_to_dict,
    derive_seed,
    emit_projection,
    emit_table,
    fit_method,
    folds_csv,
    format_cell,
    grid_search,
    predict_method,
    projection_csv,
    report_csv,
    rows_from_folds_csv,
    run_experiment,
    write_report,
)
from normda.dataset import DomainDataset, Fold, SyntheticShiftConfig, generate_synthetic, save_csv
from normda.deep import TrainConfig
from normda.errors import EmptyInputError, ExperimentError, ShapeError
from normda.normalize import NormStrategy
from normda.shallow import KernelSpec

FAST_TRAIN = TrainConfig(learning_rate=0.01, batch_size=32, max_epochs=15, patience=5)

SMALL_SYNTH = SyntheticShiftConfig(
    n_subjects=3, n_sessions=1, n_classes=2, samples_per_class_per_domain=20,
    dim=4, class_separation=4.0, domain_shift_scale=6.0, noise_std=1.0, seed=3,
)


# One spec of every method kind, small enough to fit in well under a second.
ALL_KINDS = (
    MethodSpec("noDA-SVM"),
    MethodSpec("TCA-SVM", dim=2),
    MethodSpec("KPCA-SVM", dim=2),
    MethodSpec("noDA-ANN", train=FAST_TRAIN, hidden=(8,), feature_dim=4),
    MethodSpec("DANN", train=FAST_TRAIN, hidden=(8,), feature_dim=4),
    MethodSpec("ADDA", train=FAST_TRAIN, hidden=(8,), feature_dim=4),
)


def small_cfg(**overrides):
    base = dict(
        dataset=SMALL_SYNTH,
        protocol="loso",
        strategies=(NormStrategy.NO_NORM, NormStrategy.Z2),
        methods=(MethodSpec("noDA-SVM"),),
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# Scoring helpers


def test_accuracy_cases():
    assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert accuracy([1, 1], [2, 2]) == 0.0
    assert accuracy([1, 2, 3, 4, 9], [1, 2, 3, 4, 5]) == pytest.approx(0.8)
    with pytest.raises(ShapeError):
        accuracy([1], [1, 2])
    with pytest.raises(EmptyInputError):
        accuracy([], [])


def test_format_cell_matches_published_shape():
    assert format_cell(0.8152, 0.0726) == "81.52 (7.26)"


def test_derive_seed_stable_and_distinct():
    a = derive_seed(7, "Z2", "noDA-SVM", "fold-1")
    assert a == derive_seed(7, "Z2", "noDA-SVM", "fold-1")
    assert a != derive_seed(7, "Z2", "noDA-SVM", "fold-2")


# ---------------------------------------------------------------------------
# Grid search


def separable_split(seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(size=(40, 2)) + [3, 0], rng.normal(size=(40, 2)) - [3, 0]])
    y = np.array([0] * 40 + [1] * 40)
    idx = rng.permutation(80)
    return X[idx[:60]], y[idx[:60]], X[idx[60:]], y[idx[60:]]


def test_grid_single_point_returned():
    Xtr, ytr, Xv, yv = separable_split()
    method = MethodSpec("noDA-SVM")
    best = grid_search(method, {"C": [2.5]}, Xtr, ytr, Xv, yv, Xv, 0)
    assert best.C == 2.5


def test_grid_failing_point_loses_to_finite_one():
    Xtr, ytr, Xv, yv = separable_split(1)
    method = MethodSpec("noDA-SVM")
    # C = -1 is rejected when the point is built, which fails it like a fit
    best = grid_search(method, {"C": [-1.0, 1.0]}, Xtr, ytr, Xv, yv, Xv, 0)
    assert best.C == 1.0
    with pytest.raises(ExperimentError):
        grid_search(method, {"C": [-1.0, -2.0]}, Xtr, ytr, Xv, yv, Xv, 0)


def test_grid_learning_rates_on_separable_toy():
    Xtr, ytr, Xv, yv = separable_split(2)
    method = MethodSpec("noDA-ANN", train=FAST_TRAIN, hidden=(8,), feature_dim=4)
    best = grid_search(
        method, {"learning_rate": [0.1, 0.01, 0.001, 0.0001]}, Xtr, ytr, Xv, yv, Xv, seed=0
    )
    [(fitted, _)] = fit_method(best, [FitProblem(Xtr, ytr, Xv, 0)])
    assert accuracy(predict_method(fitted, Xv), yv) >= 0.95


def test_grid_tie_keeps_declared_order():
    Xtr, ytr, Xv, yv = separable_split(3)
    method = MethodSpec("noDA-SVM")
    best = grid_search(method, {"C": [1.0, 2.0]}, Xtr, ytr, Xv, yv, Xv, 0)
    assert best.C == 1.0  # both reach the same validation accuracy


def test_apply_grid_point_routing():
    method = MethodSpec("DANN", train=FAST_TRAIN)
    out = apply_grid_point(
        method,
        {"hidden": [32], "learning_rate": 0.001, "lam": 2.0, "kernel": {"kind": "rbf", "gamma": 0.5}},
    )
    assert out.hidden == (32,) and out.train.learning_rate == 0.001
    assert out.lam == 2.0 and out.kernel.kind == "rbf"
    with pytest.raises(Exception):
        apply_grid_point(method, {"bogus": 1})


# ---------------------------------------------------------------------------
# run_experiment


def test_run_experiment_shape_contract():
    report = run_experiment(small_cfg())
    assert len(report.cells) == 2
    for cell in report.cells:
        assert cell.ok and len(cell.accuracies) == 3
        key = (cell.strategy, cell.method)
        cell_folds = [o.fold_name for o in report.rows if (o.strategy, o.method) == key]
        assert cell_folds == [f.name for f in report.folds]


def test_cell_seconds_include_grid_search(monkeypatch):
    import time

    import normda.bench as bench

    real_grid_search = bench.grid_search

    def slow_grid_search(*args, **kwargs):
        time.sleep(0.05)
        return real_grid_search(*args, **kwargs)

    monkeypatch.setattr(bench, "grid_search", slow_grid_search)
    report = run_experiment(
        small_cfg(strategies=(NormStrategy.Z2,), grids={"noDA-SVM": {"C": [1.0]}})
    )
    n_folds = len(report.folds)
    assert report.cell("Z2", "noDA-SVM").seconds >= 0.05 * n_folds


def test_run_experiment_hlso_protocol():
    cfg = small_cfg(
        dataset=SyntheticShiftConfig(
            n_subjects=2, n_sessions=2, n_classes=2, samples_per_class_per_domain=15,
            dim=4, class_separation=4.0, domain_shift_scale=4.0, seed=6,
        ),
        protocol="hlso",
    )
    report = run_experiment(cfg)
    assert len(report.folds) == 2  # one fold per subject
    assert all(f.name.endswith("session-1") for f in report.folds)
    assert all(cell.ok for cell in report.cells)


def test_run_experiment_deterministic_report_csv(tmp_path):
    a = run_experiment(small_cfg())
    b = run_experiment(small_cfg())
    assert report_csv(a.cells) == report_csv(b.cells)
    assert folds_csv(a.rows) == folds_csv(b.rows)


def test_run_experiment_parallel_matches_serial():
    serial = report_csv(run_experiment(small_cfg()).cells)
    for jobs in (2, 3, 4):  # 6 groups: 2 runs of 3, 3 of 2, and 3 of 2 with a worker to spare
        assert report_csv(run_experiment(small_cfg(), jobs=jobs).cells) == serial


def test_deep_hlso_folds_of_different_sizes_give_the_same_report_at_any_jobs(tmp_path):
    # Each subject keeps a different share of its rows, so the HLSO folds
    # differ in size and each run trains several lockstep stacks; jobs=2
    # splits the (strategy, fold) groups into two tasks with other stacks.
    base = generate_synthetic(SyntheticShiftConfig(
        n_subjects=3, n_sessions=2, n_classes=2, samples_per_class_per_domain=12,
        dim=4, class_separation=4.0, domain_shift_scale=4.0, seed=8,
    ))
    keep = np.arange(base.n) % (base.subjects + 3) != 0
    path = tmp_path / "d.csv"
    save_csv(DomainDataset(base.features[keep], base.labels[keep], base.subjects[keep], base.sessions[keep]), path)
    deep = dict(train=FAST_TRAIN, hidden=(4,), feature_dim=4)
    cfg = small_cfg(
        dataset=str(path), protocol="hlso",
        strategies=(NormStrategy.NO_NORM, NormStrategy.Z0, NormStrategy.Z2),
        methods=(
            MethodSpec("noDA-ANN", **deep), MethodSpec("DANN", **deep), MethodSpec("ADDA", **deep),
            MethodSpec("noDA-SVM"),
        ),
    )
    outputs = []
    for jobs in (1, 2):
        report = run_experiment(cfg, jobs=jobs)
        assert all(c.ok for c in report.cells)
        write_report(report, tmp_path / f"jobs{jobs}")
        outputs.append([(tmp_path / f"jobs{jobs}" / name).read_bytes() for name in ("folds.csv", "report.csv")])
    assert len({(f.train_idx.size, f.test_idx.size) for f in report.folds}) == 3
    assert outputs[0] == outputs[1]


@pytest.fixture
def recording_pool(monkeypatch):
    """Swaps in a pool that runs each task in this process, and returns the
    record of the pool sizes requested and the argument tuples submitted."""
    import concurrent.futures

    record = {"sizes": [], "tasks": []}

    class RecordingPool:
        def __init__(self, max_workers):
            record["sizes"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            record["tasks"].append(args)
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return record


def test_run_experiment_starts_no_more_workers_than_groups(recording_pool):
    report = run_experiment(small_cfg(), jobs=1000)
    assert recording_pool["sizes"] == [len(report.config.strategies) * len(report.folds)]


def test_run_experiment_sends_jobs_fold_major_runs_with_the_dataset_once(recording_pool):
    report = run_experiment(small_cfg(), jobs=2)  # SVM only: 2 strategies x 3 folds
    tasks = recording_pool["tasks"]
    assert recording_pool["sizes"] == [2] and len(tasks) == 2
    for task in tasks:
        assert [arg is report.dataset for arg in task] == [True, False, False, False, False]
        assert len(task[1]) == 3
    sent = [(strategy, fold.name) for task in tasks for strategy, fold in task[1]]
    assert sent == [(s, f.name) for f in report.folds for s in report.config.strategies]


def test_overflowing_domain_fails_its_cell_with_the_message(tmp_path):
    # noNorm passes subject 0's finite 1e160 rows through unchanged. Every
    # fold that trains on them overflows its Gram; the fold that only tests
    # on them does not (1e160 times an unscaled row stays finite).
    base = generate_synthetic(SMALL_SYNTH)
    feats = np.where((base.subjects == 0)[:, None], base.features * 1e160, base.features)
    path = tmp_path / "d.csv"
    save_csv(DomainDataset(feats, base.labels, base.subjects, base.sessions), path)
    report = run_experiment(small_cfg(dataset=str(path), strategies=(NormStrategy.NO_NORM,)))
    (cell,) = report.cells
    assert not cell.ok and "Gram matrix has non-finite entries" in cell.error
    scored = {row.fold_name: row.accuracy is not None for row in report.rows}
    assert scored == {fold: fold == "test-subject-0" for fold in scored} and len(scored) > 2


def test_run_experiment_records_failed_cells():
    # one subject contributes a single row: Z2 cannot standardize the test
    # side of its LOSO fold, so the Z2 cell fails while noNorm survives
    base = generate_synthetic(SMALL_SYNTH)
    feats = np.vstack([base.features, [[0.0, 0.0, 0.0, 0.0]]])
    labels = np.r_[base.labels, 0]
    subjects = np.r_[base.subjects, 9]
    sessions = np.r_[base.sessions, 0]
    ds = DomainDataset(feats, labels, subjects, sessions)

    import normda.bench as bench

    cfg = small_cfg()
    report = bench.run_experiment(
        ExperimentConfig(
            dataset=SMALL_SYNTH, protocol="loso",
            strategies=(NormStrategy.Z2,), methods=(MethodSpec("noDA-SVM"),), seed=1,
        )
    )
    assert report.cells[0].ok  # sanity: the clean dataset works

    from normda.bench import _run_fold_group
    from normda.dataset import loso_folds

    folds = loso_folds(ds)
    bad_fold = [f for f in folds if f.name == "test-subject-9"][0]
    outcomes = _run_fold_group(ds, [(NormStrategy.Z2, bad_fold)], (MethodSpec("noDA-SVM"),), {}, 0)
    assert outcomes[0].error is not None
    assert "test-subject-9" in outcomes[0].error and "Z2" in outcomes[0].error


def final_specs(monkeypatch, methods, grids, train_X, train_y, test_X, root_seed):
    """Run one noNorm fold group and return the spec each method was last
    fit with, which is its cell's final fit; grid-search fits come first."""
    import normda.bench as bench
    from normda.bench import _run_fold_group

    n_train, n_test = len(train_X), len(test_X)
    ds = DomainDataset(
        np.vstack([train_X, test_X]),
        np.r_[train_y, np.zeros(n_test, dtype=np.int64)],
        np.r_[np.zeros(n_train, dtype=np.int64), np.ones(n_test, dtype=np.int64)],
        np.zeros(n_train + n_test, dtype=np.int64),
    )
    fold = Fold(np.arange(n_train), np.arange(n_train, n_train + n_test), "fold-0")
    specs = {}
    real_fit_method = bench.fit_method

    def recording_fit_method(spec, *args, **kwargs):
        specs[spec.kind] = spec
        return real_fit_method(spec, *args, **kwargs)

    monkeypatch.setattr(bench, "fit_method", recording_fit_method)
    outcomes = _run_fold_group(ds, [(NormStrategy.NO_NORM, fold)], methods, grids, root_seed)
    assert [o.error for o in outcomes] == [None] * len(methods)
    return specs


def test_dann_architecture_search_shared_across_deep_methods(monkeypatch):
    rng = np.random.default_rng(0)
    train_X = np.vstack([rng.normal(size=(40, 4)) + [3, 0, 0, 0], rng.normal(size=(40, 4)) - [3, 0, 0, 0]])
    train_y = np.array([0] * 40 + [1] * 40)
    test_X = rng.normal(size=(20, 4))
    methods = (
        MethodSpec("noDA-ANN", train=FAST_TRAIN, hidden=(4,), feature_dim=4),
        MethodSpec("DANN", train=FAST_TRAIN, hidden=(4,), feature_dim=4),
        MethodSpec("ADDA", train=FAST_TRAIN, hidden=(4,), feature_dim=4),
        MethodSpec("noDA-SVM"),
    )
    grids = {"DANN": {"hidden": [[8], [12]]}, "noDA-ANN": {"hidden": [[30]], "learning_rate": [0.01]}}
    specs = final_specs(monkeypatch, methods, grids, train_X, train_y, test_X, 3)
    winner = specs["DANN"].hidden
    assert winner in ((8,), (12,))
    # fairness rule: the searched architecture is shared, so noDA-ANN's own
    # conflicting architecture grid entry is discarded (its lr search stays)
    assert specs["noDA-ANN"].hidden == winner
    assert specs["ADDA"].hidden == winner
    assert specs["noDA-SVM"] == methods[3]


def test_no_arch_search_leaves_per_method_architectures_alone(monkeypatch):
    rng = np.random.default_rng(1)
    train_X = rng.normal(size=(60, 4))
    train_y = np.array([0, 1] * 30)
    methods = (
        MethodSpec("noDA-ANN", train=FAST_TRAIN, hidden=(6,), feature_dim=4),
        MethodSpec("DANN", train=FAST_TRAIN, hidden=(10,), feature_dim=4),
    )
    specs = final_specs(
        monkeypatch, methods, {"DANN": {"learning_rate": [0.01, 0.001]}},
        train_X, train_y, train_X[:10], 4,
    )
    assert specs["noDA-ANN"].hidden == (6,)  # no architecture search, no pinning
    assert specs["DANN"].train.learning_rate in (0.01, 0.001)


def test_dann_architecture_search_independent_of_method_order():
    deep = dict(train=FAST_TRAIN, hidden=(4,), feature_dim=4)
    dann_first = (MethodSpec("DANN", **deep), MethodSpec("noDA-ANN", **deep), MethodSpec("ADDA", **deep))
    dann_last = dann_first[1:] + dann_first[:1]
    grids = {"DANN": {"hidden": [[4], [8]]}}
    reports = [
        run_experiment(small_cfg(strategies=(NormStrategy.Z2,), methods=methods, grids=grids))
        for methods in (dann_first, dann_last)
    ]
    assert all(cell.ok for cell in reports[0].cells)
    assert folds_csv(reports[0].rows) == folds_csv(reports[1].rows)


def test_headline_ordering_holds_for_deep_methods():
    # normalization alone (Z2 + plain network) beats adversarial training
    # on unnormalized data once the shift dominates the noise
    cfg = ExperimentConfig(
        dataset=SyntheticShiftConfig(
            n_subjects=3, n_sessions=1, n_classes=2, samples_per_class_per_domain=60,
            dim=8, class_separation=4.0, domain_shift_scale=8.0, noise_std=1.0, seed=2,
        ),
        protocol="loso",
        strategies=(NormStrategy.NO_NORM, NormStrategy.Z2),
        methods=(
            MethodSpec("noDA-ANN", train=FAST_TRAIN, hidden=(16,), feature_dim=8),
            MethodSpec("DANN", train=FAST_TRAIN, hidden=(16,), feature_dim=8),
        ),
        seed=2,
    )
    report = run_experiment(cfg)
    assert report.cell("Z2", "noDA-ANN").mean > report.cell("noNorm", "DANN").mean


def test_no_shift_strategies_statistically_indistinguishable():
    cfg = small_cfg(
        dataset=SyntheticShiftConfig(
            n_subjects=3, n_classes=2, samples_per_class_per_domain=30,
            dim=4, class_separation=4.0, domain_shift_scale=0.0, seed=11,
        )
    )
    report = run_experiment(cfg)
    a = report.cell("noNorm", "noDA-SVM")
    b = report.cell("Z2", "noDA-SVM")
    assert abs(a.mean - b.mean) <= a.std + b.std + 0.02


def test_label_leakage_audit_fitted_parameters_bit_identical():
    ds = generate_synthetic(SMALL_SYNTH)
    from normda.dataset import loso_folds
    from normda.normalize import apply_strategy

    fold = loso_folds(ds)[0]
    constant = DomainDataset(
        ds.features, np.where(np.isin(np.arange(ds.n), fold.test_idx), 0, ds.labels),
        ds.subjects, ds.sessions,
    )
    for method in ALL_KINDS:
        fitted = []
        for source in (ds, constant):
            train_X, test_X = apply_strategy(source, fold, NormStrategy.Z2)
            [(fit, _)] = fit_method(method, [FitProblem(train_X, source.labels[fold.train_idx], test_X, 9)])
            fitted.append(fit)
        for pa, pb in zip(fitted[0].parameters(), fitted[1].parameters()):
            np.testing.assert_array_equal(pa, pb)


def test_fit_method_with_no_problems_returns_no_results():
    from normda.bench import METHODS

    for kind in METHODS:
        assert fit_method(MethodSpec(kind), []) == [], kind


def reference_parameters(fitted) -> list[np.ndarray]:
    """The per-model-type walk FittedMethod.parameters replaced."""
    from normda.deep import AddaModel, DannModel, Mlp, PlainModel
    from normda.shallow import KpcaModel, TcaModel
    from normda.svm import SvmModel

    out = []

    def collect(obj):
        if isinstance(obj, np.ndarray):
            out.append(obj)
        elif isinstance(obj, Mlp):
            for w, b in obj.params:
                out.extend([w, b])
        elif isinstance(obj, (PlainModel, DannModel)):
            collect(obj.extractor)
            collect(obj.predictor)
            if isinstance(obj, DannModel):
                collect(obj.domain_classifier)
        elif isinstance(obj, AddaModel):
            for part in (obj.source_encoder, obj.target_encoder, obj.classifier, obj.discriminator):
                collect(part)
        elif isinstance(obj, SvmModel):
            out.extend([obj.dual_coefs, obj.biases, obj.support_rows])
        elif isinstance(obj, TcaModel):
            out.extend([obj.projection, obj.basis])
        elif isinstance(obj, KpcaModel):
            out.extend([obj.alphas, obj.basis, obj.col_means])

    for item in fitted.payload:
        collect(item)
    return out


def fitted_all_kinds():
    ds = generate_synthetic(SMALL_SYNTH)
    from normda.dataset import loso_folds
    from normda.normalize import apply_strategy

    fold = loso_folds(ds)[0]
    train_X, test_X = apply_strategy(ds, fold, NormStrategy.Z2)
    train_y = ds.labels[fold.train_idx]
    return [fit_method(m, [FitProblem(train_X, train_y, test_X, 9)])[0][0] for m in ALL_KINDS], test_X


def test_parameters_match_per_type_walk_for_every_kind():
    def keys(arrays):
        return sorted((a.dtype.str, a.shape, a.tobytes()) for a in arrays)

    fitted, _ = fitted_all_kinds()
    assert [f.kind for f in fitted] == [m.kind for m in ALL_KINDS]
    for f in fitted:
        reference = reference_parameters(f)
        assert reference, f.kind
        assert keys(f.parameters()) == keys(reference), f.kind


def test_grid_keys_and_strategy_order_derive_from_their_types():
    import normda.bench as bench

    assert sorted(bench.GRID_KEYS) == sorted([
        "C", "dim", "mu_reg", "lam", "hidden", "feature_dim", "activation", "kernel",
        "svm_kernel", "learning_rate", "batch_size", "max_epochs", "patience",
    ])
    assert bench.STRATEGY_ORDER == ("noNorm", "Z0", "Z1", "Z2", "Z3", "MinMax")


@pytest.mark.parametrize("kind", ["noDA-ANN", "DANN", "ADDA"])
def test_deep_fit_method_remaps_mixed_class_sets_bitwise(monkeypatch, kind):
    # {3, 7} and {7, 3} share a network shape and train in one lockstep
    # stack; {3, 7, 9} needs a three-class head and a stack of its own.
    import normda.deep as deep

    rng = np.random.default_rng(31)

    def problem(labels, seed):
        y = np.repeat(labels, 12)
        return FitProblem(rng.normal(size=(y.size, 4)) + y[:, None] / 4, y, rng.normal(size=(20, 4)), seed)

    problems = [problem([3, 7], 1), problem([3, 7, 9], 2), problem([7, 3], 3)]
    method = next(m for m in ALL_KINDS if m.kind == kind)
    solo = [fit_method(method, [p])[0][0] for p in problems]
    sizes = []
    real = deep._lockstep

    def recording(problems, setup, train):
        def recorded(members, specs):
            sizes.append(len(members))
            return train(members, specs)

        return real(problems, setup, recorded)

    monkeypatch.setattr(deep, "_lockstep", recording)
    together = [fit for fit, _ in fit_method(method, problems)]
    assert sorted(sizes) == [1, 2]
    for p, got, want in zip(problems, together, solo):
        labels = sorted(set(p.train_y.tolist()))
        assert got.payload[0].classes == want.payload[0].classes == tuple(labels)
        assert [a.tobytes() for a in got.parameters()] == [a.tobytes() for a in want.parameters()]
        predicted = predict_method(got, p.test_X)
        assert set(predicted.tolist()) <= set(labels)
        np.testing.assert_array_equal(predicted, predict_method(want, p.test_X))


def test_fit_and_predict_call_solvers_through_module_names(monkeypatch):
    # Tracing and tests rebind these module attributes; a registry that held
    # the function objects would bypass the rebinding without any error.
    import normda.bench as bench

    calls = {"svm_train": 0, "kpca_transform": 0, "train_adda": 0}

    def counting(name):
        real = getattr(bench, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(bench, name, counting(name))
    fitted, test_X = fitted_all_kinds()
    assert calls == {"svm_train": 3, "kpca_transform": 1, "train_adda": 1}
    for f in fitted:
        predict_method(f, test_X)
    assert calls == {"svm_train": 3, "kpca_transform": 2, "train_adda": 1}


# ---------------------------------------------------------------------------
# Rendering


def test_emit_table_markdown_shape():
    report = run_experiment(small_cfg())
    md = emit_table(report.cells)
    lines = md.strip().splitlines()
    assert lines[0] == "| strategy | noDA-SVM |"
    assert len(lines) == 4  # header, rule, two strategy rows
    assert lines[2].startswith("| noNorm |") and lines[3].startswith("| Z2 |")


def test_emit_table_renders_failed_cells():
    from normda.bench import FoldOutcome

    rows = (FoldOutcome("Z2", "noDA-SVM", "f0", None, "fold=f0: boom", 0.1),)
    cells = cells_from_rows(rows)
    assert "FAIL" in emit_table(cells)
    csv_lines = report_csv(cells).strip().splitlines()
    assert csv_lines[1].endswith(",,,FAIL")
    assert "FAIL" in folds_csv(rows)


def test_cells_from_rows_groups_in_row_order():
    from normda.bench import FoldOutcome, cells_from_rows

    rows = [
        FoldOutcome("Z2", "DANN", "f1", 0.5, None, 1.0),
        FoldOutcome("Z2", "noDA-SVM", "f1", None, "boom", 0.5),
        FoldOutcome("Z2", "DANN", "f0", 0.75, None, 2.0),
        FoldOutcome("Z2", "noDA-SVM", "f0", 1.0, None, 0.25),
    ]
    dann, svm = cells_from_rows(rows)
    assert (dann.method, dann.accuracies, dann.seconds) == ("DANN", (0.5, 0.75), 3.0)
    assert (svm.method, svm.accuracies, svm.error) == ("noDA-SVM", (None, 1.0), "boom")
    assert [line.split(",")[2] for line in folds_csv(rows).splitlines()[1:]] == ["f1", "f0", "f1", "f0"]
    assert svm.mean is None and svm.std is None


def test_folds_csv_marks_only_the_failed_fold(tmp_path):
    # HLSO over 3 subjects; subject 2's held-out session keeps one row, so
    # Z2 cannot standardize that fold's test side. The other folds score.
    base = generate_synthetic(SyntheticShiftConfig(
        n_subjects=3, n_sessions=2, n_classes=2, samples_per_class_per_domain=10,
        dim=4, class_separation=4.0, domain_shift_scale=4.0, seed=6,
    ))
    keep = ~((base.subjects == 2) & (base.sessions == 1))
    keep[np.flatnonzero(~keep)[0]] = True
    path = tmp_path / "d.csv"
    save_csv(DomainDataset(base.features[keep], base.labels[keep], base.subjects[keep], base.sessions[keep]), path)
    cfg = small_cfg(dataset=str(path), protocol="hlso", strategies=(NormStrategy.Z2,))
    report = run_experiment(cfg)
    (cell,) = report.cells
    assert not cell.ok and "subject-2" in cell.error
    text = folds_csv(report.rows)
    values = [line.rsplit(",", 1)[1] for line in text.splitlines()[1:]]
    assert values[2] == "FAIL" and all(0.0 <= float(v) <= 1.0 for v in values[:2])
    assert folds_csv(rows_from_folds_csv(text)) == text
    assert report_csv([cell]).splitlines()[1].endswith(",,,FAIL")


def test_run_experiment_cells_follow_table_order(tmp_path):
    # The config lists methods and strategies out of table order; every
    # view of the run's records comes out in table order all the same.
    deep = dict(train=FAST_TRAIN, hidden=(4,), feature_dim=4)
    methods = (MethodSpec("noDA-SVM"), MethodSpec("noDA-ANN", **deep), MethodSpec("DANN", **deep))
    report = run_experiment(small_cfg(methods=methods, strategies=(NormStrategy.Z2, NormStrategy.NO_NORM)))
    table = [(s, m) for s in ("noNorm", "Z2") for m in ("noDA-ANN", "DANN", "noDA-SVM")]
    assert [(c.strategy, c.method) for c in report.cells] == table
    write_report(report, tmp_path)
    md = (tmp_path / "report.md").read_text().splitlines()
    timings = [line[2:].split(":")[0].split(" / ") for line in md if line.startswith("- ") and " / " in line]
    assert [tuple(t) for t in timings] == table
    csv_lines = (tmp_path / "report.csv").read_text().splitlines()[1:]
    assert [tuple(line.split(",")[:2]) for line in csv_lines] == table
    fold_lines = (tmp_path / "folds.csv").read_text().splitlines()[1:]
    folds = [f.name for f in report.folds]
    assert [tuple(line.split(",")[:3]) for line in fold_lines] == [(s, m, f) for s, m in table for f in folds]


def test_run_experiment_keeps_one_record_per_strategy_method_fold():
    deep = dict(train=FAST_TRAIN, hidden=(4,), feature_dim=4)
    methods = (MethodSpec("noDA-SVM"), MethodSpec("DANN", **deep))
    report = run_experiment(small_cfg(methods=methods), jobs=2)
    keys = [(o.strategy, o.method, o.fold_name) for o in report.rows]
    assert len(keys) == len(set(keys)) == 2 * 2 * len(report.folds)
    strategies = report.config.strategies
    assert set(keys) == {(s.value, m.kind, f.name) for s in strategies for m in methods for f in report.folds}


def test_emit_table_csv_roundtrips_reals():
    report = run_experiment(small_cfg())
    lines = report_csv(report.cells).strip().splitlines()
    assert lines[0] == "strategy,method,n_folds,mean,std,status"
    for line in lines[1:]:
        parts = line.split(",")
        mean, std = float(parts[3]), float(parts[4])
        cell = report.cell(parts[0], parts[1])
        assert mean == cell.mean and std == cell.std


def test_write_report_layout(tmp_path):
    cfg = small_cfg(output_dir=str(tmp_path / "out"), emit_projections=True)
    report = run_experiment(cfg)
    outdir = write_report(report, cfg.output_dir)
    for name in ("report.md", "report.csv", "folds.csv", "config.json"):
        assert (outdir / name).exists()
    echoed = json.loads((outdir / "config.json").read_text())
    assert echoed["seed"] == 5 and echoed["protocol"] == "loso"
    projections = list(outdir.glob("projection_*.csv"))
    assert len(projections) == 2 * 3  # strategies x folds
    header = projections[0].read_text().splitlines()[0]
    assert header == "x,y,subject,session,split,label"


def test_config_dict_roundtrip():
    rbf = KernelSpec("rbf", 0.25)
    train = TrainConfig(learning_rate=0.003, batch_size=16, max_epochs=7, patience=3)
    methods = (
        MethodSpec("noDA-ANN", hidden=(12, 6), feature_dim=5, activation="sigmoid", train=train),
        MethodSpec("DANN", hidden=(9,), lam=0.5, train=train),
        MethodSpec("ADDA", hidden=(7, 7), activation="leaky_relu", train=train),
        MethodSpec("noDA-SVM", kernel=rbf, C=2.0),
        MethodSpec("TCA-SVM", kernel=rbf, svm_kernel=KernelSpec("rbf"), dim=3, mu_reg=0.5),
        MethodSpec("KPCA-SVM", kernel=KernelSpec("rbf", 2.0), svm_kernel=rbf, dim=4),
    )
    cfg = small_cfg(methods=methods, grids={"DANN": {"hidden": [[8], [16]]}}, emit_projections=True)
    raw = config_to_dict(cfg)
    back = config_from_dict(raw)
    assert back == cfg
    assert json.loads(json.dumps(raw)) == json.loads(json.dumps(config_to_dict(back)))
    assert config_from_dict(dict(raw, dataset={"csv": "data.csv"})).dataset == "data.csv"


@pytest.mark.parametrize(
    "change, named",
    [
        ({"emit_projection": True}, "emit_projection"),
        ({"dataset": {"synthetic": {}, "csv": "d.csv"}}, "dataset"),
        ({"methods": [{"kind": "DANN", "lamda": 2.0}]}, "lamda"),
        ({"grids": {"DAN": {"lam": [1.0]}}}, "DAN"),
        ({"methods": [{"kind": "noDA-SVM", "svm_tol": 1e-3}]}, r"unknown method fields: \['svm_tol'\]"),
        ({"methods": [{"kind": "noDA-SVM", "svm_max_passes": 20}]}, r"unknown method fields: \['svm_max_passes'\]"),
        ({"methods": [{"kind": "DANN", "train": {"seed": 99}}]}, r"unknown train fields: \['seed'\]"),
        ({"methods": [{"kind": "DANN", "train": {"val_fraction": 0.2}}]}, r"unknown train fields: \['val_fraction'\]"),
        (
            {"grids": {"noDA-SVM": {"kernel": [{"kind": "rbf", "bogus": 1}]}}},
            r"unknown kernel fields: \['bogus'\]",
        ),
        ({"grids": {"noDA-SVM": {"gamma": [0.5]}}}, r"unknown parameters \['gamma'\]"),
    ],
)
def test_config_from_dict_rejects_unknown_keys(change, named):
    from normda.errors import ConfigError

    raw = dict(config_to_dict(small_cfg()), **change)
    with pytest.raises(ConfigError, match=named):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "change, named",
    [
        ({"seed": 2.7}, r"seed must be an integer, got 2.7"),
        ({"seed": True}, r"seed must be an integer, got True"),
        ({"emit_projections": "false"}, r"emit_projections must be a boolean, got 'false'"),
        ({"output_dir": 5}, r"output_dir must be a string, got 5"),
        ({"dataset": {"synthetic": {"seed": -1}}}, r"seed must be >= 0"),
        ({"methods": [{"kind": "noDA-ANN", "activation": "bogus"}]}, r"unknown activation 'bogus'"),
        ({"methods": [{"kind": "DANN", "hidden": [2.5]}]}, r"hidden must be a list of integers, got \[2.5\]"),
        ({"methods": [{"kind": "DANN", "hidden": 16}]}, r"hidden must be a list of integers, got 16"),
        ({"methods": [{"kind": "DANN", "hidden": ["x"]}]}, r"hidden must be a list of integers, got \['x'\]"),
        ({"methods": [{"kind": "DANN", "hidden": [True]}]}, r"hidden must be a list of integers, got \[True\]"),
        ({"methods": [{"kind": "DANN", "hidden": [0]}]}, r"all >= 1; got \(1, 0, 8\)"),
        ({"methods": [{"kind": "DANN", "hidden": [2, 2, 2, 2]}]}, r"at most 3 hidden layers are supported; got 4"),
        ({"methods": [{"kind": "DANN", "feature_dim": 0}]}, r"all >= 1; got \(1, 16, 0\)"),
        ({"methods": 5}, r"methods must be a list, got 5"),
        ({"strategies": 5}, r"strategies must be a list, got 5"),
        ({"dataset": {"synthetic": None}}, r"synthetic fields: expected an object, got None"),
        ({"methods": [{"kind": "noDA-SVM"}, {"C": 1.0}]}, r"method 1 has no 'kind'"),
        ({"methods": [{"kind": "noDA-SVM", "C": 0.0}]}, r"C must be positive, got 0.0"),
        ({"methods": [{"kind": "noDA-SVM", "C": float("nan")}]}, r"C must be finite, got nan"),
        ({"methods": [{"kind": "TCA-SVM", "mu_reg": -1.0}]}, r"mu_reg must be positive, got -1.0"),
        ({"methods": [{"kind": "TCA-SVM", "dim": 0}]}, r"dim must be >= 1, got 0"),
        ({"methods": [{"kind": "DANN", "lam": -0.5}]}, r"lam must be >= 0, got -0.5"),
        (
            {"methods": [{"kind": "noDA-SVM", "kernel": {"kind": "rbf", "gamma": "x"}}]},
            r"gamma must be a number, got 'x'",
        ),
        (
            {"methods": [{"kind": "noDA-SVM", "kernel": {"kind": "linear", "gamma": "x"}}]},
            r"gamma must be a number, got 'x'",
        ),
        (
            {"methods": [{"kind": "noDA-SVM", "kernel": {"kind": "linear", "gamma": 0.5}}]},
            r"a linear kernel takes no gamma, got 0.5",
        ),
        (
            {"methods": [{"kind": "noDA-ANN", "train": {"learning_rate": float("inf")}}]},
            r"learning_rate must be finite, got inf",
        ),
        ({"dataset": {"synthetic": {"noise_std": float("nan")}}}, r"noise_std must be finite, got nan"),
        ({"strategies": ["Z2", "z2"]}, r"duplicate strategies in config"),
        ({"dataset": {"csv": 5}}, r"dataset 'csv' must be a path string, got 5"),
        ({"dataset": {"csv": None}}, r"dataset 'csv' must be a path string, got None"),
        ({"dataset": {"csv": ["d.csv"]}}, r"dataset 'csv' must be a path string, got \['d.csv'\]"),
        ({"dataset": {"synthetic": {"n_classes": 1}}}, r"n_classes must be >= 2"),
    ],
)
def test_config_from_dict_rejects_wrong_values(change, named):
    from normda.errors import ConfigError

    raw = dict(config_to_dict(small_cfg()), **change)
    with pytest.raises(ConfigError, match=named):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "grids, named",
    [
        ({"noDA-SVM": {"Cc": [1.0]}}, r"unknown parameters \['Cc'\]"),
        ({"noDA-SVM": {"C": []}}, r"no values for \['C'\]"),
        ({"TCA-SVM": {"C": [1.0]}}, r"not in methods: \['TCA-SVM'\]"),
        ({"noDA-SVM": {"C": "10"}}, r"no values for \['C'\]; need a non-empty list, got '10'"),
        ({"noDA-SVM": {"C": 1.0}}, r"need a non-empty list, got 1.0"),
        ({"noDA-SVM": {"C": [1.0, "x"]}}, r"C must be a number, got 'x'"),
        ({"noDA-SVM": {"dim": [2.5]}}, r"dim must be an integer"),
        ({"noDA-SVM": {"batch_size": [2.5]}}, r"batch_size must be an integer"),
        ({"noDA-SVM": {"kernel": [{"kind": "poly"}]}}, r"unknown kernel kind 'poly'"),
        ({"noDA-SVM": {"kernel": ["rbf"]}}, r"kernel must be a KernelSpec"),
        ({"noDA-SVM": {"kernel": [{"kind": "rbf", "gamma": -1.0}]}}, r"rbf gamma must be positive"),
        ({"noDA-SVM": {"activation": ["bogus"]}}, r"unknown activation 'bogus'"),
        ({"noDA-SVM": {"hidden": [[16], [2.5]]}}, r"hidden must be a list of integers, got \[2.5\]"),
        ({"noDA-SVM": {"gamma": [0.5]}}, r"unknown parameters \['gamma'\]"),
        ({"noDA-SVM": {"C": [1.0, 0.0]}}, r"C must be positive, got 0.0"),
        ({"noDA-SVM": {"kernel": [{"kind": "linear", "gamma": 0.5}]}}, r"a linear kernel takes no gamma"),
    ],
)
def test_config_rejects_bad_grids_at_load(grids, named):
    from normda.errors import ConfigError

    with pytest.raises(ConfigError, match=named):
        small_cfg(grids=grids)


@pytest.mark.parametrize(
    "change, named",
    [
        ({"dataset": 0}, r"dataset must be a SyntheticShiftConfig or a CSV path, got 0"),
        ({"dataset": None}, r"dataset must be a SyntheticShiftConfig or a CSV path, got None"),
        ({"strategies": ("Z2",)}, r"strategies must hold NormStrategy values, got \('Z2',\)"),
        ({"strategies": "Z2"}, r"strategies must hold NormStrategy values, got 'Z2'"),
        ({"methods": ("noDA-SVM",)}, r"methods must hold MethodSpec values, got \('noDA-SVM',\)"),
    ],
)
def test_experiment_config_rejects_wrong_typed_fields(change, named):
    from normda.errors import ConfigError

    with pytest.raises(ConfigError, match=named):
        small_cfg(**change)


def test_experiment_config_takes_a_path_dataset():
    assert small_cfg(dataset=Path("d.csv")).dataset == Path("d.csv")


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: MethodSpec("noDA-SVM", C="x"), r"C must be a number, got 'x'"),
        (lambda: MethodSpec("TCA-SVM", dim=2.0), r"dim must be an integer"),
        (lambda: MethodSpec("DANN", lam=True), r"lam must be a number"),
        (lambda: MethodSpec("noDA-SVM", kernel="rbf"), r"kernel must be a KernelSpec"),
        (lambda: TrainConfig(batch_size=2.5), r"batch_size must be an integer, got 2.5"),
        (lambda: TrainConfig(learning_rate="0.1"), r"learning_rate must be a number"),
        (lambda: MethodSpec("noDA-SVM", C=float("inf")), r"C must be finite, got inf"),
        (lambda: KernelSpec("rbf", "x"), r"gamma must be a number, got 'x'"),
        (lambda: KernelSpec("rbf", float("nan")), r"gamma must be finite, got nan"),
        (lambda: KernelSpec(5), r"kind must be a string, got 5"),
    ],
)
def test_specs_reject_wrong_typed_numbers(build, named):
    from normda.errors import ConfigError

    with pytest.raises(ConfigError, match=named):
        build()


def test_traced_names_are_functions_of_their_modules():
    # The benchmark's tracer wraps these functions by name, so a rename
    # would break its traced runs. TRACED is read from its source.
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text()
    (traced,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]
    ]
    assert "bench" in traced
    for layer, names in traced.items():
        module = importlib.import_module(f"normda.{layer}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"normda.{layer}.{name}"


def test_probed_parameters_exist():
    # The benchmark's probes bind traced calls' arguments by name, so a
    # renamed parameter would break its traced runs.
    from normda.svm import svm_train

    assert {"X", "y"} <= set(inspect.signature(svm_train).parameters)
    assert "fitted" in inspect.signature(predict_method).parameters


# ---------------------------------------------------------------------------
# Projections


def test_projection_row_count_and_columns():
    ds = generate_synthetic(SMALL_SYNTH)
    from normda.dataset import loso_folds

    fold = loso_folds(ds)[0]
    rows = emit_projection(ds, fold, NormStrategy.Z0)
    assert len(rows) == ds.n
    assert set(rows[0]) == {"x", "y", "subject", "session", "split", "label"}
    text = projection_csv(rows)
    assert text.splitlines()[0] == "x,y,subject,session,split,label"
    assert len(text.strip().splitlines()) == ds.n + 1


def test_projection_identical_domains_coincide_under_z2():
    rng = np.random.default_rng(8)
    block = rng.normal(size=(30, 4))
    feats = np.vstack([block, block, rng.normal(size=(30, 4)) + 5.0])
    ds = DomainDataset(
        feats,
        np.tile(np.r_[np.zeros(15, int), np.ones(15, int)], 3),
        np.r_[np.zeros(30, int), np.ones(30, int), np.full(30, 2)],
        np.zeros(90, int),
    )
    fold = Fold(np.arange(60), np.arange(60, 90), "test-subject-2")
    rows = emit_projection(ds, fold, NormStrategy.Z2)
    pts = {s: np.array([(r["x"], r["y"]) for r in rows if r["subject"] == s]) for s in (0, 1)}
    pooled_std = np.std(np.array([(r["x"], r["y"]) for r in rows]))
    dist = np.linalg.norm(pts[0].mean(axis=0) - pts[1].mean(axis=0))
    assert dist < 0.1 * pooled_std
