"""NormdaError is the only expected failure.

Library code catches nothing broader, so a bug inside a fold surfaces as
its own exception instead of a FAIL cell or a skipped file, and input
checks raise ConfigError (a ValueError) or NumericError.
"""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import normda.bench as bench
from normda.bench import MethodSpec, grid_search, run_experiment, write_report
from normda.dataset import DomainDataset, Fold, SyntheticShiftConfig, deap_valence_labels
from normda.errors import ConfigError, NumericError
from normda.features import SignalEpoch
from normda.normalize import FeatureStats, NormStrategy
from normda.shallow import KernelSpec, kpca_fit, tca_fit
from normda.svm import svm_train

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
        lambda: deap_valence_labels([7.0]),
        lambda: deap_valence_labels([9.5]),
        lambda: SignalEpoch(np.array([[0.0, np.nan, 1.0]]), 200.0),
        lambda: SignalEpoch(np.array([[0.0, np.inf, 1.0]]), 200.0),
        lambda: SignalEpoch(np.zeros((1, 3)), float("inf")),
        lambda: SignalEpoch(np.zeros((1, 3)), float("nan")),
    ],
)
def test_input_checks_raise_config_error(call):
    with pytest.raises(ConfigError):
        call()


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
