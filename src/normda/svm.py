"""Kernel support-vector classifier trained by sequential minimal optimization.

Binary subproblems follow Platt's working-pair selection: a KKT-violating
example is paired first with the largest error gap over non-bound points,
then with every non-bound point, then with every point. A solve stops at
the first full sweep that changes nothing, after SMO_MAX_PASSES full sweeps
that follow no-progress passes, or when its step budget runs out. None of
these certifies the KKT conditions. The sweeps test KKT through errors that
carry the current bias, and with no free multiplier that bias is the last
step's (b1 + b2) / 2, so a solve can stop with violators left (the strict
xfail in tests/test_svm.py). On unnormalized data many solves end on the
step budget instead (8 of the 48 in perfbench's headline-loso instance 7).

The all-rows scan is one array pass: it evaluates take_step's acceptance
rule for every row and makes the scalar step only on the rows that pass,
in scan order, until one succeeds. The filter may only over-approximate.
It repeats the scalar rule's operations on the same entries (K[i1, i2],
not K[i2, i1]; gram need not be bit-symmetric), so it keeps every row that
the scalar rule accepts, and it keeps every row with eta <= 0 for the
scalar rule to decide. The solver therefore visits the same pairs, draws
the same rng values and returns the same bits as a scan that calls
take_step on every row (tests/test_svm.py holds that scan as a reference).
Multi-class uses one-vs-rest with argmax over per-class decision values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateLabelsError, NumericError, ShapeError
from .shallow import KernelSpec, gram, resolve_kernel

_STEP_EPS = 1e-10
# KKT tolerance, and the cap on full sweeps after a no-progress pass.
SMO_TOL = 1e-3
SMO_MAX_PASSES = 20


@dataclass(frozen=True)
class SvmModel:
    support_rows: np.ndarray
    dual_coefs: np.ndarray  # (n_classes, n_support) signed alpha * y
    biases: np.ndarray
    kernel: KernelSpec
    C: float
    classes: tuple[int, ...]


def _smo_binary(K: np.ndarray, y: np.ndarray, C: float, rng) -> tuple[np.ndarray, float]:
    """Solve one binary soft-margin dual; returns (alpha, bias).

    SMO_MAX_PASSES caps the number of full sweeps triggered after a
    no-progress pass; normal termination is the first full sweep that
    changes nothing. A generous step budget bounds runtime on degenerately
    scaled inputs where convergence would take microscopic steps forever.

    Scalar steps run on Python floats (`al`, `yl` and `kd` mirror alpha, y
    and the Gram diagonal), which round exactly as float64 scalars do. The
    non-bound rows are cached and found again only after a multiplier
    enters or leaves (0, C).
    """
    n = y.shape[0]
    C = float(C)  # a numpy scalar C would make every step numpy scalar math
    alpha = np.zeros(n)
    al = [0.0] * n
    yl = y.tolist()
    diag = K.diagonal().copy()
    kd = diag.tolist()
    krows = list(K)
    b = 0.0
    errors = -y.astype(np.float64)  # f(x) - y with f = 0 initially
    row1, row2 = np.empty(n), np.empty(n)
    step_budget = max(20_000, 100 * n)
    non_bound: tuple[np.ndarray, list[int]] | None = None  # rows with 0 < alpha < C

    def free() -> tuple[np.ndarray, list[int]]:
        nonlocal non_bound
        if non_bound is None:
            rows = np.flatnonzero((alpha > 0) & (alpha < C))
            non_bound = rows, rows.tolist()
        return non_bound

    def take_step(i1: int, i2: int) -> bool:
        nonlocal b, step_budget, non_bound
        if i1 == i2:
            return False
        a1_old, a2_old = al[i1], al[i2]
        y1, y2 = yl[i1], yl[i2]
        e1, e2 = errors.item(i1), errors.item(i2)
        s = y1 * y2
        if s < 0:
            lo, hi = max(0.0, a2_old - a1_old), min(C, C + a2_old - a1_old)
        else:
            lo, hi = max(0.0, a1_old + a2_old - C), min(C, a1_old + a2_old)
        if lo >= hi:
            return False
        k11, k12, k22 = kd[i1], K.item(i1, i2), kd[i2]
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

        # errors += (c1 * K[i1] + c2 * K[i2]) + (b_new - b), without temporaries.
        np.multiply(krows[i1], y1 * (a1 - a1_old), row1)
        np.multiply(krows[i2], y2 * (a2 - a2_old), row2)
        np.add(row1, row2, row1)
        np.add(row1, b_new - b, row1)
        np.add(errors, row1, errors)
        if (0.0 < a1_old < C) != (0.0 < a1 < C) or (0.0 < a2_old < C) != (0.0 < a2 < C):
            non_bound = None
        alpha[i1], alpha[i2] = a1, a2
        al[i1], al[i2] = a1, a2
        b = b_new
        step_budget -= 1
        return True

    def step_candidates(i2: int, start: int) -> list[int]:
        """Rows i1 in the order (start, start + 1, ...) mod n for which
        take_step(i1, i2) may succeed.

        Repeats take_step's eta > 0 acceptance rule as array operations
        with the same operands and rounding, so it keeps every row the
        scalar rule accepts. Rows with eta <= 0 (or a NaN anywhere) are
        kept for the scalar rule to decide.
        """
        a2_old, y2, e2 = al[i2], yl[i2], errors.item(i2)
        opposite = (y * y2) < 0
        lo = np.where(opposite, a2_old - alpha, alpha + a2_old - C)
        np.maximum(lo, 0.0, out=lo)
        hi = np.where(opposite, C + a2_old - alpha, alpha + a2_old)
        np.minimum(hi, C, out=hi)
        eta = diag + kd[i2] - 2.0 * K[:, i2]
        curved = eta > 0
        a2 = a2_old + y2 * (errors - e2) / np.where(curved, eta, 1.0)
        np.minimum(np.maximum(a2, lo), hi, out=a2)
        tiny = np.abs(a2 - a2_old) < _STEP_EPS * (a2 + a2_old + _STEP_EPS)
        keep = ~(lo >= hi) & ~(curved & tiny)
        keep[i2] = False
        rows = np.flatnonzero(keep)
        cut = int(np.searchsorted(rows, start))
        return rows[cut:].tolist() + rows[:cut].tolist()

    def examine(i2: int) -> bool:
        r2 = errors.item(i2) * yl[i2]
        if not ((r2 < -SMO_TOL and al[i2] < C) or (r2 > SMO_TOL and al[i2] > 0)):
            return False
        rows, nb = free()
        if len(nb) > 1:
            i1 = nb[np.abs(errors[rows] - errors[i2]).argmax()]
            if take_step(i1, i2):
                return True
        start = int(rng.integers(n))
        for off in range(len(nb)):
            if take_step(nb[(start + off) % len(nb)], i2):
                return True
        start = int(rng.integers(n))
        for i1 in step_candidates(i2, start):
            if take_step(i1, i2):
                return True
        return False

    num_changed = 0
    examine_all = True
    full_sweeps = 0
    while (num_changed > 0 or examine_all) and step_budget > 0:
        num_changed = 0
        if examine_all:
            full_sweeps += 1
            if full_sweeps > SMO_MAX_PASSES:
                break
            for i in range(n):
                num_changed += examine(i)
                if step_budget <= 0:
                    break
        else:
            for i in free()[1]:
                num_changed += examine(i)
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
    seed: int = 0,
) -> SvmModel:
    """Train a one-vs-rest kernel SVM; deterministic given the seed."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ShapeError("X must be (n, m) with matching length-n labels")
    if not np.all(np.isfinite(X)):
        raise NumericError("training features contain non-finite values")
    if not (math.isfinite(C) and C > 0):
        raise ConfigError(f"C must be positive and finite, got {C!r}")
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
        alpha, b = _smo_binary(K, y_pm, C, rng)
        coefs[ci] = alpha * y_pm
        biases[ci] = b

    support = np.flatnonzero(np.any(np.abs(coefs) > 0, axis=0))
    return SvmModel(X[support], coefs[:, support], biases, k, C, classes)


def decision_values(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """Per-class decision values sum_i coef_i k(s_i, x) + b, shape (|X|, n_classes)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.support_rows.shape[1]:
        raise ShapeError("X feature dimension must match the trained model")
    return gram(X, model.support_rows, model.kernel) @ model.dual_coefs.T + model.biases


def svm_predict(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties resolve to the smallest class id."""
    picks = np.argmax(decision_values(model, X), axis=1)  # first maximum, classes sorted ascending
    return np.asarray(model.classes, dtype=np.int64)[picks]
