import numpy as np
import pytest

from normda.errors import DegenerateLabelsError, NumericError, ShapeError
from normda.shallow import KernelSpec, median_heuristic_gamma
from normda.svm import decision_values, svm_predict, svm_train

LINEAR = KernelSpec("linear")


def full_alphas(model, X, class_index):
    """Recover per-training-row |alpha| by matching support rows back to X."""
    alpha = np.zeros(len(X))
    for srow, coef in zip(model.support_rows, model.dual_coefs[class_index]):
        idx = np.flatnonzero((X == srow).all(axis=1))
        alpha[idx[0]] = abs(coef)
    return alpha


def kkt_holds(model, X, y, tol):
    """Audit the stationarity conditions of every trained binary problem."""
    values = decision_values(model, X)
    for ci, c in enumerate(model.classes):
        y_pm = np.where(y == c, 1.0, -1.0)
        margin = y_pm * values[:, ci]
        alpha = full_alphas(model, X, ci)
        for i in range(len(X)):
            if alpha[i] < 1e-9:
                if not margin[i] >= 1 - tol - 1e-9:
                    return False
            elif alpha[i] > model.C - 1e-9:
                if not margin[i] <= 1 + tol + 1e-9:
                    return False
            elif abs(margin[i] - 1) > tol + 1e-9:
                return False
    return True


def test_separable_1d_boundary_at_zero():
    X = np.array([[-1.0], [1.0]])
    y = np.array([0, 1])
    model = svm_train(X, y, LINEAR, C=100.0)
    np.testing.assert_array_equal(svm_predict(model, X), y)
    # the symmetric max-margin boundary passes through 0; tie goes to class 0
    assert svm_predict(model, np.array([[0.0]]))[0] == 0


def test_rbf_solves_xor():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([0, 0, 1, 1])
    rbf = svm_train(X, y, KernelSpec("rbf", 1.0), C=10.0)
    assert np.mean(svm_predict(rbf, X) == y) == 1.0
    linear = svm_train(X, y, LINEAR, C=10.0)
    assert np.mean(svm_predict(linear, X) == y) < 1.0


def test_single_class_rejected():
    with pytest.raises(DegenerateLabelsError):
        svm_train(np.ones((4, 2)), np.zeros(4, dtype=int), LINEAR)


def test_non_finite_features_rejected():
    X = np.array([[0.0], [np.nan]])
    with pytest.raises(NumericError):
        svm_train(X, np.array([0, 1]), LINEAR)


def test_kkt_audit_random_problems():
    rng = np.random.default_rng(0)
    for trial in range(20):
        X = rng.normal(size=(30, 3))
        if trial % 2 == 0:
            y = (X[:, 0] > 0).astype(int)  # near-separable
        else:
            y = rng.integers(0, 2, 30)  # non-separable
        if len(set(y.tolist())) < 2:
            y[0] = 1 - y[0]
        k = KernelSpec("rbf", 0.7) if trial % 3 else LINEAR
        model = svm_train(X, y, k, C=1.0, tol=1e-3, seed=trial)
        assert kkt_holds(model, X, y, 1e-3), f"KKT audit failed on trial {trial}"


@pytest.mark.xfail(
    strict=True,
    reason="known SMO bias defect: with no free multiplier the bias is the last "
    "step's (b1+b2)/2, so the two one-vs-rest biases disagree (trials 0, 4, 5 fail)",
)
def test_kkt_audit_small_C_all_multipliers_at_bound():
    failed = []
    for trial in range(20):
        rng = np.random.default_rng(trial)
        X = rng.normal(size=(40, 4))
        y = (X[:, 0] + 0.8 * rng.normal(size=40) > 0).astype(int)
        k = KernelSpec("rbf", median_heuristic_gamma(X))
        model = svm_train(X, y, k, C=0.1, tol=1e-3, seed=trial)
        if not kkt_holds(model, X, y, 1e-3):
            failed.append(trial)
    assert not failed, f"KKT audit failed on trials {failed}"


def test_dual_constraints():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 4))
    y = rng.integers(0, 3, 40)
    model = svm_train(X, y, KernelSpec("rbf", 0.5), C=2.0)
    assert np.all(np.abs(model.dual_coefs) <= 2.0 + 1e-9)
    # sum alpha_i y_i = 0 per binary problem
    for ci in range(len(model.classes)):
        assert abs(model.dual_coefs[ci].sum()) < 1e-9
    # at least one support row per trained problem
    assert np.all(np.any(np.abs(model.dual_coefs) > 0, axis=1))


def test_multiclass_tie_breaks_to_smallest_class():
    X = np.array([[-1.0], [1.0]])
    model = svm_train(X, np.array([3, 7]), LINEAR, C=100.0)
    assert model.classes == (3, 7)
    assert svm_predict(model, np.array([[0.0]]))[0] == 3


def test_predict_is_rowwise_pure():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(25, 3))
    y = (X[:, 1] > 0).astype(int)
    model = svm_train(X, y, LINEAR)
    single = svm_predict(model, X[:1])
    stacked = svm_predict(model, np.vstack([X[:1], X[:1], X[1:]]))
    assert stacked[0] == single[0] and stacked[1] == single[0]
    np.testing.assert_array_equal(stacked[2:], svm_predict(model, X[1:]))


def test_predict_empty_matrix():
    X = np.array([[-1.0], [1.0]])
    model = svm_train(X, np.array([0, 1]), LINEAR)
    assert svm_predict(model, np.empty((0, 1))).shape == (0,)


def test_predict_shape_mismatch():
    X = np.array([[-1.0], [1.0]])
    model = svm_train(X, np.array([0, 1]), LINEAR)
    with pytest.raises(ShapeError):
        svm_predict(model, np.ones((2, 3)))


def test_training_deterministic_given_seed():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 3))
    y = rng.integers(0, 2, 30)
    a = svm_train(X, y, KernelSpec("rbf", 0.5), seed=11)
    b = svm_train(X, y, KernelSpec("rbf", 0.5), seed=11)
    np.testing.assert_array_equal(a.dual_coefs, b.dual_coefs)
    np.testing.assert_array_equal(a.biases, b.biases)


def test_rbf_gamma_defaults_to_median_heuristic():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(20, 3))
    y = (X[:, 0] > 0).astype(int)
    model = svm_train(X, y, KernelSpec("rbf"))
    assert model.kernel.gamma is not None and model.kernel.gamma > 0
