"""Kernel support-vector classifier trained by sequential minimal optimization.

Binary subproblems follow Platt's working-pair selection: a KKT-violating
example is paired first with the largest error gap over non-bound points,
then with every non-bound point, then with every point, so termination
(a full sweep with no progress) certifies the KKT conditions within tol.
Multi-class uses one-vs-rest with argmax over per-class decision values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateLabelsError, NumericError, ShapeError
from .shallow import KernelSpec, gram, resolve_kernel

_STEP_EPS = 1e-10


@dataclass(frozen=True)
class SvmModel:
    support_rows: np.ndarray
    dual_coefs: np.ndarray  # (n_classes, n_support) signed alpha * y
    biases: np.ndarray
    kernel: KernelSpec
    C: float
    classes: tuple[int, ...]


def _smo_binary(
    K: np.ndarray, y: np.ndarray, C: float, tol: float, max_passes: int, rng
) -> tuple[np.ndarray, float]:
    """Solve one binary soft-margin dual; returns (alpha, bias).

    `max_passes` caps the number of full sweeps triggered after a
    no-progress pass; normal termination is the first full sweep that
    changes nothing. A generous step budget bounds runtime on degenerately
    scaled inputs where convergence would take microscopic steps forever.
    """
    n = y.shape[0]
    alpha = np.zeros(n)
    b = 0.0
    errors = -y.astype(np.float64)  # f(x) - y with f = 0 initially
    step_budget = max(20_000, 100 * n)

    def take_step(i1: int, i2: int) -> bool:
        nonlocal b, errors, step_budget
        if i1 == i2:
            return False
        a1_old, a2_old = alpha[i1], alpha[i2]
        y1, y2 = y[i1], y[i2]
        e1, e2 = errors[i1], errors[i2]
        s = y1 * y2
        if s < 0:
            lo, hi = max(0.0, a2_old - a1_old), min(C, C + a2_old - a1_old)
        else:
            lo, hi = max(0.0, a1_old + a2_old - C), min(C, a1_old + a2_old)
        if lo >= hi:
            return False
        k11, k12, k22 = K[i1, i1], K[i1, i2], K[i2, i2]
        eta = k11 + k22 - 2.0 * k12
        if eta > 0:
            a2 = a2_old + y2 * (e1 - e2) / eta
            a2 = min(max(a2, lo), hi)
        else:
            # Degenerate curvature (duplicate points): test both endpoints.
            f1 = y1 * (e1 - b) - a1_old * k11 - s * a2_old * k12
            f2 = y2 * (e2 - b) - s * a1_old * k12 - a2_old * k22
            lo1 = a1_old + s * (a2_old - lo)
            hi1 = a1_old + s * (a2_old - hi)
            lo_obj = lo1 * f1 + lo * f2 + 0.5 * lo1**2 * k11 + 0.5 * lo**2 * k22 + s * lo * lo1 * k12
            hi_obj = hi1 * f1 + hi * f2 + 0.5 * hi1**2 * k11 + 0.5 * hi**2 * k22 + s * hi * hi1 * k12
            if lo_obj < hi_obj - _STEP_EPS:
                a2 = lo
            elif lo_obj > hi_obj + _STEP_EPS:
                a2 = hi
            else:
                return False
        if abs(a2 - a2_old) < _STEP_EPS * (a2 + a2_old + _STEP_EPS):
            return False
        a1 = a1_old + s * (a2_old - a2)

        b1 = b - e1 - y1 * (a1 - a1_old) * k11 - y2 * (a2 - a2_old) * k12
        b2 = b - e2 - y1 * (a1 - a1_old) * k12 - y2 * (a2 - a2_old) * k22
        if 0.0 < a1 < C:
            b_new = b1
        elif 0.0 < a2 < C:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)

        errors += (
            y1 * (a1 - a1_old) * K[i1]
            + y2 * (a2 - a2_old) * K[i2]
            + (b_new - b)
        )
        alpha[i1], alpha[i2] = a1, a2
        b = b_new
        step_budget -= 1
        return True

    def examine(i2: int) -> bool:
        r2 = errors[i2] * y[i2]
        if not ((r2 < -tol and alpha[i2] < C) or (r2 > tol and alpha[i2] > 0)):
            return False
        non_bound = np.flatnonzero((alpha > 0) & (alpha < C))
        if non_bound.size > 1:
            i1 = int(non_bound[np.argmax(np.abs(errors[non_bound] - errors[i2]))])
            if take_step(i1, i2):
                return True
        start = int(rng.integers(n))
        for off in range(non_bound.size):
            if take_step(int(non_bound[(start + off) % non_bound.size]), i2):
                return True
        start = int(rng.integers(n))
        for off in range(n):
            if take_step((start + off) % n, i2):
                return True
        return False

    num_changed = 0
    examine_all = True
    full_sweeps = 0
    while (num_changed > 0 or examine_all) and step_budget > 0:
        num_changed = 0
        if examine_all:
            full_sweeps += 1
            if full_sweeps > max_passes:
                break
            for i in range(n):
                num_changed += examine(i)
                if step_budget <= 0:
                    break
        else:
            for i in np.flatnonzero((alpha > 0) & (alpha < C)):
                num_changed += examine(int(i))
                if step_budget <= 0:
                    break
        if examine_all:
            examine_all = False
        elif num_changed == 0:
            examine_all = True
    return alpha, b


def svm_train(
    X: np.ndarray,
    y: np.ndarray,
    k: KernelSpec,
    C: float = 1.0,
    tol: float = 1e-3,
    max_passes: int = 20,
    seed: int = 0,
) -> SvmModel:
    """Train a one-vs-rest kernel SVM; deterministic given the seed."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ShapeError("X must be (n, m) with matching length-n labels")
    if not np.all(np.isfinite(X)):
        raise NumericError("training features contain non-finite values")
    if C <= 0:
        raise ConfigError("C must be positive")
    classes = tuple(sorted({int(v) for v in y}))
    if len(classes) < 2:
        raise DegenerateLabelsError("training labels contain a single class")
    k = resolve_kernel(k, X)
    K = gram(X, X, k)
    rng = np.random.default_rng(seed)
    coefs = np.zeros((len(classes), X.shape[0]))
    biases = np.zeros(len(classes))
    for ci, c in enumerate(classes):
        y_pm = np.where(y == c, 1.0, -1.0)
        alpha, b = _smo_binary(K, y_pm, C, tol, max_passes, rng)
        coefs[ci] = alpha * y_pm
        biases[ci] = b

    support = np.flatnonzero(np.any(np.abs(coefs) > 0, axis=0))
    if support.size == 0:
        # All multipliers stayed at zero (cannot happen for >= 2 classes,
        # but keep the model well-formed regardless).
        support = np.arange(X.shape[0])
    return SvmModel(X[support].copy(), coefs[:, support], biases, k, C, classes)


def decision_values(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """Per-class decision values sum_i coef_i k(s_i, x) + b, shape (|X|, n_classes)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.support_rows.shape[1]:
        raise ShapeError("X feature dimension must match the trained model")
    if X.shape[0] == 0:
        return np.empty((0, len(model.classes)))
    return gram(X, model.support_rows, model.kernel) @ model.dual_coefs.T + model.biases


def svm_predict(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties resolve to the smallest class id."""
    values = decision_values(model, X)
    if values.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    picks = np.argmax(values, axis=1)  # first maximum, classes sorted ascending
    return np.asarray(model.classes, dtype=np.int64)[picks]
