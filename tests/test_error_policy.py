"""NormdaError is the only expected failure.

Library code catches nothing broader, so a bug inside a fold surfaces as
its own exception instead of a FAIL cell or a skipped file, and input
checks raise ConfigError (a ValueError) or NumericError. Every fit and
model input takes its feature rows through errors.feature_rows, so each
bad input raises one error type whichever method receives it.
"""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import normda.bench as bench
from normda.bench import MethodSpec, grid_search, run_experiment, write_report
from normda.dataset import DomainDataset, Fold, SyntheticShiftConfig, stratified_indices
from normda.deep import (
    PlainModel, TrainConfig, forward, init_mlp, network_specs, predict, train_adda, train_dann, train_plain
)
from normda.errors import ConfigError, EmptyInputError, NormdaError, NumericError, ShapeError
from normda.features import (
    BandSpec, CspModel, SignalEpoch, butter_bandpass, csp_features, csp_fit, differential_entropy
)
from normda.normalize import FeatureStats, NormStrategy
from normda.shallow import KernelSpec, kpca_fit, kpca_transform, mmd_sq, tca_fit, tca_transform
from normda.svm import svm_predict, svm_train

SRC = Path(__file__).resolve().parents[1] / "src" / "normda"

SMALL = bench.ExperimentConfig(
    dataset=SyntheticShiftConfig(
        n_subjects=3, n_sessions=1, n_classes=2, samples_per_class_per_domain=10,
        dim=3, class_separation=4.0, domain_shift_scale=5.0, noise_std=1.0, seed=2,
    ),
    strategies=(NormStrategy.NO_NORM, NormStrategy.Z2),
    methods=(MethodSpec("noDA-SVM"),),
    seed=4,
)


def _broad_handlers(tree: ast.AST) -> list[int]:
    """Line numbers of bare `except:` and of handlers naming Exception or
    BaseException, alone or in a tuple."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        names = {getattr(t, "id", getattr(t, "attr", None)) for t in types if t is not None}
        if node.type is None or names & {"Exception", "BaseException"}:
            lines.append(node.lineno)
    return lines


def test_no_module_catches_every_exception():
    offenders = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in _broad_handlers(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert offenders == []


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("try:\n    pass\nexcept:\n    pass\n", [3]),
        ("try:\n    pass\nexcept Exception:\n    pass\n", [3]),
        ("try:\n    pass\nexcept (KeyError, BaseException) as e:\n    pass\n", [3]),
        ("try:\n    pass\nexcept builtins.Exception:\n    pass\n", [3]),
        ("try:\n    pass\nexcept (KeyError, ValueError):\n    pass\n", []),
    ],
)
def test_broad_handler_guard_flags_what_it_should(source, flagged):
    assert _broad_handlers(ast.parse(source)) == flagged


def _injected_bug(*args, **kwargs):
    raise KeyError("injected")


@pytest.mark.parametrize("jobs", [1, 2])
def test_bug_in_a_fold_propagates_from_run_experiment(monkeypatch, jobs):
    monkeypatch.setattr(bench, "svm_train", _injected_bug)
    with pytest.raises(KeyError, match="injected"):
        run_experiment(SMALL, jobs=jobs)


def test_bug_in_a_grid_point_propagates_from_grid_search(monkeypatch):
    monkeypatch.setattr(bench, "svm_train", _injected_bug)
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(20, 2)), np.array([0, 1] * 10)
    with pytest.raises(KeyError, match="injected"):
        grid_search(MethodSpec("noDA-SVM"), {"C": [0.1, 1.0]}, X, y, X, y, X, 0)


def test_bug_in_a_projection_propagates_from_write_report(monkeypatch, tmp_path):
    report = run_experiment(replace(SMALL, emit_projections=True))
    monkeypatch.setattr(bench, "emit_projection", _injected_bug)
    with pytest.raises(KeyError, match="injected"):
        write_report(report, tmp_path / "r")


def test_rejected_projection_is_listed_in_report(tmp_path):
    # Subject 9 has one row, so Z2 cannot standardize it as a test domain.
    feats = np.vstack([np.random.default_rng(1).normal(size=(8, 2)), [[0.0, 1.0]]])
    ds = DomainDataset(feats, [0, 1] * 4 + [0], [0] * 4 + [1] * 4 + [9], [0] * 9)
    cfg = replace(SMALL, emit_projections=True)
    report = bench.ExperimentReport(
        cfg, (), ds, (Fold(np.arange(8), np.array([8]), "test-subject-9"),)
    )
    write_report(report, tmp_path)
    assert (tmp_path / "projection_noNorm_test-subject-9.csv").exists()
    assert not (tmp_path / "projection_Z2_test-subject-9.csv").exists()
    md = (tmp_path / "report.md").read_text()
    assert "## Skipped projections\n\n* projection_Z2_test-subject-9.csv: domain (subject=9" in md


# Scalar arguments of the wrong type, each checked before any work: the
# argument the error must name, and the call.
SCALAR_ARGUMENTS = {
    "svm_train-C-str": ("C", lambda: svm_train(np.eye(2), np.array([0, 1]), KernelSpec(), C="1")),
    "svm_train-C-bool": ("C", lambda: svm_train(np.eye(2), np.array([0, 1]), KernelSpec(), C=True)),
    "tca_fit-dim-float": ("dim", lambda: tca_fit(np.eye(2), np.eye(2), KernelSpec(), 1.5)),
    "tca_fit-dim-bool": ("dim", lambda: tca_fit(np.eye(2), np.eye(2), KernelSpec(), True)),
    "tca_fit-mu_reg-str": ("mu_reg", lambda: tca_fit(np.eye(2), np.eye(2), KernelSpec(), 1, mu_reg="1")),
    "kpca_fit-dim-float": ("dim", lambda: kpca_fit(np.eye(2), KernelSpec(), 1.5)),
    "run_experiment-jobs-float": ("jobs", lambda: run_experiment(SMALL, jobs=1.5)),
    "run_experiment-jobs-str": ("jobs", lambda: run_experiment(SMALL, jobs="2")),
    "run_experiment-jobs-bool": ("jobs", lambda: run_experiment(SMALL, jobs=True)),
}

EPOCH = SignalEpoch(np.random.default_rng(3).normal(size=(2, 100)), 200.0)
OTHER = SignalEpoch(EPOCH.samples * [[1.0], [3.0]], 200.0)
# Signal-path arguments of the wrong kind: each raises ConfigError, never a
# bare TypeError, ValueError or AttributeError, and a bool is not a number.
SIGNAL_ARGUMENTS = {
    "SignalEpoch-fs-str": lambda: SignalEpoch(EPOCH.samples, "200"),
    "SignalEpoch-fs-bool": lambda: SignalEpoch(EPOCH.samples, True),
    "SignalEpoch-samples-str": lambda: SignalEpoch([["a", "b"]], 200.0),
    "BandSpec-low-str": lambda: BandSpec("x", "1", 3.0),
    "BandSpec-low-bool": lambda: BandSpec("x", True, 3.0),
    "butter_bandpass-high-str": lambda: butter_bandpass(EPOCH, 1.0, "3"),
    "differential_entropy-band-str": lambda: differential_entropy(EPOCH, ["alpha"]),
    "differential_entropy-bands-BandSpec": lambda: differential_entropy(EPOCH, BandSpec("alpha", 8.0, 13.0)),
    "csp_fit-n_components-float": lambda: csp_fit([EPOCH], [OTHER], 2.0),
    "csp_fit-n_components-str": lambda: csp_fit([EPOCH], [OTHER], "2"),
    "csp_fit-trial-ndarray": lambda: csp_fit([EPOCH.samples], [OTHER]),
    "csp_features-epoch-ndarray": lambda: csp_features(EPOCH.samples, CspModel(np.eye(2))),
}


@pytest.mark.parametrize(
    "call",
    [
        lambda: svm_train(np.eye(2), np.array([0, 1]), KernelSpec(), C=0.0),
        lambda: KernelSpec("poly"),
        lambda: KernelSpec("rbf", -1.0),
        lambda: tca_fit(np.eye(2), np.eye(2), KernelSpec(), 1, mu_reg=0.0),
        lambda: NormStrategy.from_name("Z9"),
        lambda: NormStrategy.from_name(2),
        lambda: FeatureStats(np.zeros(2), -np.ones(2)),
        lambda: differential_entropy(SignalEpoch(np.zeros((1, 100)), 200.0), [None]),
        lambda: differential_entropy(SignalEpoch(np.zeros((1, 100)), 200.0), []),
        lambda: SignalEpoch(np.array([[0.0, np.nan, 1.0]]), 200.0),
        lambda: SignalEpoch(np.array([[0.0, np.inf, 1.0]]), 200.0),
        lambda: SignalEpoch(np.zeros((1, 3)), float("inf")),
        lambda: SignalEpoch(np.zeros((1, 3)), float("nan")),
        lambda: svm_train(np.eye(2), np.array([0, 1]), KernelSpec(), seed=-1),
        lambda: svm_train(np.eye(2), np.array([0, 1]), KernelSpec(), seed=1.5),
        lambda: svm_train(np.eye(2), np.array([0, 1]), KernelSpec(), seed=True),
        lambda: stratified_indices([0, 0, 1, 1], -1),
        lambda: DomainDataset([["a"]], [0], [0], [0]),
        *(call for _, call in SCALAR_ARGUMENTS.values()),
    ],
)
def test_input_checks_raise_config_error(call):
    with pytest.raises(ConfigError):
        call()


@pytest.mark.parametrize("case", SCALAR_ARGUMENTS)
def test_scalar_argument_errors_name_the_argument(case):
    argument, call = SCALAR_ARGUMENTS[case]
    with pytest.raises(ConfigError, match=f"^{argument} must be an? "):
        call()


@pytest.mark.parametrize("case", SIGNAL_ARGUMENTS)
def test_signal_path_arguments_raise_config_error(case):
    with pytest.raises(ConfigError):
        SIGNAL_ARGUMENTS[case]()


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "fit",
    [
        lambda X, bad: tca_fit(bad, X, KernelSpec(), 1),
        lambda X, bad: tca_fit(X, bad, KernelSpec(), 1),
        lambda X, bad: kpca_fit(bad, KernelSpec("rbf"), 1),
    ],
    ids=["tca-source", "tca-target", "kpca"],
)
def test_projection_fits_reject_non_finite_input(fit, value):
    X = np.random.default_rng(0).normal(size=(6, 2))
    bad = X.copy()
    bad[1, 0] = value
    with pytest.raises(NumericError, match="non-finite"):
        fit(X, bad)


def _lin_alg_failure(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


def test_kpca_eigensolve_failure_is_numeric_error(monkeypatch):
    monkeypatch.setattr(scipy.linalg, "eigh", _lin_alg_failure)
    with pytest.raises(NumericError, match="kernel-PCA eigenproblem failed"):
        kpca_fit(np.random.default_rng(0).normal(size=(6, 2)), KernelSpec(), 2)


def test_projection_svd_failure_is_numeric_error(monkeypatch):
    ds = DomainDataset(np.random.default_rng(0).normal(size=(4, 2)), [0, 1, 0, 1], [0, 0, 1, 1], [0] * 4)
    monkeypatch.setattr(np.linalg, "svd", _lin_alg_failure)
    with pytest.raises(NumericError, match="projection SVD failed"):
        bench.emit_projection(ds, Fold(np.arange(2), np.arange(2, 4), "f"), NormStrategy.NO_NORM)


# ---------------------------------------------------------------------------
# Feature rows: one contract for every fit and model input

ROWS = np.random.default_rng(5).normal(size=(20, 3))
TARGET = ROWS + 1.0
LABELS = np.array([0, 1] * 10)


def _with_cell(X, value):
    X = X.copy()
    X[3, 1] = value
    return X


# Each bad input: how it is made from good rows, and the error it raises.
BAD_ROWS = {
    "flat": (lambda X: X[:, 0], ShapeError),
    "no-columns": (lambda X: X[:, :0], ShapeError),
    "no-rows": (lambda X: X[:0], EmptyInputError),
    "strings": (lambda X: np.full(X.shape, "a"), ShapeError),
    "nan": (lambda X: _with_cell(X, np.nan), NumericError),
    "inf": (lambda X: _with_cell(X, np.inf), NumericError),
    "width": (lambda X: X[:, :2], ShapeError),
}


def _deep_fit(trainer, *shape):
    """trainer on the one problem (X, LABELS, Xt, 0), raising the error
    that failed it."""

    def fit(X, Xt):
        (result,) = trainer([(X, LABELS, Xt, 0)], TrainConfig(batch_size=8, max_epochs=1, patience=1), *shape)
        if isinstance(result, NormdaError):
            raise result
        return result

    return fit


FITS = {
    "svm_train": lambda X, Xt: svm_train(X, LABELS, KernelSpec()),
    "tca_fit": lambda X, Xt: tca_fit(X, Xt, KernelSpec(), 2),
    "kpca_fit": lambda X, Xt: kpca_fit(X, KernelSpec(), 2),
    "mmd_sq": lambda X, Xt: mmd_sq(X, Xt, KernelSpec()),
    "train_plain": _deep_fit(train_plain, (), 4, "relu"),
    "train_dann": _deep_fit(train_dann, (), 4, "relu", 0.5),
    "train_adda": _deep_fit(train_adda, (), 4, "relu"),
}
# (fit, the argument made bad, the name its messages give that argument).
# The first argument sets the width, so "width" applies to the target only.
FIT_ARGUMENTS = [
    ("svm_train", "X", "training"),
    ("tca_fit", "X", "source"),
    ("tca_fit", "Xt", "target"),
    ("kpca_fit", "X", "training"),
    ("mmd_sq", "X", "source"),
    ("mmd_sq", "Xt", "target"),
    ("train_plain", "X", "training"),
    ("train_dann", "X", "training"),
    ("train_dann", "Xt", "target"),
    ("train_adda", "X", "training"),
    ("train_adda", "Xt", "target"),
]
# Trainer cases that SHAPE_CASES and NON_FINITE_INPUTS in test_deep.py hold.
IN_TEST_DEEP = {("X", "flat"), ("X", "no-columns"), ("X", "strings"), ("X", "nan"), ("X", "inf"),
                ("Xt", "nan"), ("Xt", "inf"), ("Xt", "width")}


@pytest.mark.parametrize(
    "fit, argument, name, case",
    [
        pytest.param(fit, argument, name, case, id=f"{fit}-{argument}-{case}")
        for fit, argument, name in FIT_ARGUMENTS
        for case in BAD_ROWS
        if (case != "width" or argument == "Xt")
        and not (fit.startswith("train_") and (argument, case) in IN_TEST_DEEP)
    ],
)
def test_every_fit_rejects_bad_feature_rows(fit, argument, name, case):
    corrupt, error = BAD_ROWS[case]
    X, Xt = (corrupt(ROWS), TARGET) if argument == "X" else (ROWS, corrupt(TARGET))
    with pytest.raises(error, match=f"^{name} features "):
        FITS[fit](X, Xt)


@pytest.fixture(scope="module")
def model_inputs():
    """Each model input of svm, shallow and deep, fitted on ROWS, as a
    function of the rows it takes."""
    svm = svm_train(ROWS, LABELS, KernelSpec())
    tca = tca_fit(ROWS, TARGET, KernelSpec(), 2)
    kpca = kpca_fit(ROWS, KernelSpec(), 2)
    extractor, predictor = (init_mlp(spec, i) for i, spec in enumerate(network_specs(3, 2, (), 4, "relu")[:2]))
    plain = PlainModel(extractor, predictor, (0, 1))
    return {
        "svm_predict": lambda X: svm_predict(svm, X),
        "tca_transform": lambda X: tca_transform(tca, X),
        "kpca_transform": lambda X: kpca_transform(kpca, X),
        "deep.predict": lambda X: predict(plain, X),
        "deep.forward": lambda X: forward(extractor.spec, extractor.params, X)[0],
    }


MODEL_INPUTS = ["svm_predict", "tca_transform", "kpca_transform", "deep.predict", "deep.forward"]


@pytest.mark.parametrize("case", [case for case in BAD_ROWS if case != "no-rows"])
@pytest.mark.parametrize("model_input", MODEL_INPUTS)
def test_every_model_input_rejects_bad_feature_rows(model_inputs, model_input, case):
    corrupt, error = BAD_ROWS[case]
    with pytest.raises(error, match="^input features "):
        model_inputs[model_input](corrupt(ROWS))


@pytest.mark.parametrize("model_input", MODEL_INPUTS)
def test_every_model_input_takes_zero_rows(model_inputs, model_input):
    assert model_inputs[model_input](ROWS[:0]).shape[0] == 0
