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

On a solve of _SCALAR_SCAN_ROWS rows or more, the all-rows scan is one
array pass: it evaluates take_step's acceptance rule for every row and
makes the scalar step only on the rows that pass, in scan order, until one
succeeds. The filter may only over-approximate. It repeats the scalar
rule's operations on the same entries (K[i1, i2], not K[i2, i1]; gram need
not be bit-symmetric), so it keeps every row that the scalar rule accepts,
and it keeps every row with eta <= 0 for the scalar rule to decide. The
solver therefore visits the same pairs, draws the same rng values and
returns the same bits as a scan that calls take_step on every row
(tests/test_svm.py holds that scan as a reference). A smaller solve makes
that scan itself, in the same order: below about 60 rows the array pass
costs more than the scalar calls it saves. Measured on 2 shared cores, BLAS
at 1 thread, on the differential tests' problem families (36 solves per
size, scalar/array pass, medians of 5): 0.433/0.442 s at 32 rows,
0.708/0.735 s at 40, 0.565/0.580 s at 56, 1.005/0.914 s at 64, 0.931/0.893
s at 96 and 1.092/1.058 s at 250. On the recorded solves of perfbench's
instances the scalar scan takes hlso-signal-cli instance 0's 480 solves of
36-40 rows from 0.522 to 0.457 s, and would take headline-loso instance 7's
48 solves of 250 rows from 1.91 to 2.20 s.

The rows with 0 < alpha < C are kept as an ascending list and index array.
A step whose multiplier enters or leaves (0, C) builds a new list with that
row added or removed; it never changes the old one in place, since a sweep
over the non-bound rows may be iterating it.

Nearly all the time goes to successful first-tier steps, so their path
does as little interpreter and ufunc-dispatch work as it can without
changing one operation. The sweep loop tests KKT, picks the largest-gap
partner (take, subtract, abs, argmax on the non-bound errors) and calls
take_step with i2's error, label and multiplier; examine runs only when
that step fails. take_step works on Python floats, clamps with conditional
expressions that return what max and min return, and updates the errors
with five ufunc calls whose scalar operands sit in 0-d float64 arrays.
Every float64 operation is the reference's, on the same operands in the
same order, and a 0-d float64 operand rounds as a Python float does, so
each step yields the same bits.

Multi-class uses one-vs-rest with argmax over per-class decision values.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigError, check_seed, check_type, class_labels, feature_rows
from .shallow import KernelSpec, gram, resolve_kernel

_STEP_EPS = 1e-10
# KKT tolerance, and the cap on full sweeps after a no-progress pass.
SMO_TOL = 1e-3
SMO_MAX_PASSES = 20
# Solves with fewer rows scan examine's all-rows tier one take_step at a
# time; larger ones filter it with step_candidates' array pass first.
_SCALAR_SCAN_ROWS = 64


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

    Scalar steps run on Python floats (`yl` and `kd` mirror y and the Gram
    diagonal), which round exactly as float64 scalars do. The multipliers
    live only in the list `al`; the all-rows array pass and the return
    build an array from it.
    """
    n = y.shape[0]
    C = float(C)  # a numpy scalar C would make every step numpy scalar math
    al = [0.0] * n
    yl = y.tolist()
    diag = K.diagonal()
    kd = diag.tolist()
    krows = list(K)
    b = 0.0
    errors = -y.astype(np.float64)  # f(x) - y with f = 0 initially
    row1, row2 = np.empty(n), np.empty(n)
    # Bound once: each lookup would otherwise run on every step.
    error_at, k_at, errors_at = errors.item, K.item, errors.take
    multiply, add, subtract, absolute = np.multiply, np.add, np.subtract, np.abs
    # A ufunc converts a Python float operand on every call; writing the
    # value into a 0-d float64 array first is cheaper and rounds the same.
    coef1, coef2, shift, pivot = np.empty(()), np.empty(()), np.empty(()), np.empty(())
    step_budget = max(20_000, 100 * n)
    # Rows with 0 < alpha < C, ascending, as an index array and as a list.
    non_bound: tuple[np.ndarray, list[int]] = (np.empty(0, dtype=np.intp), [])

    def take_step(i1: int, i2: int, e2: float, y2: float, a2_old: float) -> bool:
        """One analytic step on (i1, i2), given i2's current error, label
        and multiplier. The clamps return what max(0.0, v), min(C, v) and
        min(max(a2, lo), hi) return, NaN included."""
        nonlocal b, step_budget, non_bound
        if i1 == i2:
            return False
        a1_old, y1, e1 = al[i1], yl[i1], error_at(i1)
        s = y1 * y2
        if s < 0:
            lo, hi = a2_old - a1_old, C + a2_old - a1_old
        else:
            lo, hi = a1_old + a2_old - C, a1_old + a2_old
        lo = lo if lo > 0.0 else 0.0
        hi = hi if hi < C else C
        if lo >= hi:
            return False
        k11, k12, k22 = kd[i1], k_at(i1, i2), kd[i2]
        eta = k11 + k22 - 2.0 * k12
        if eta > 0:
            a2 = a2_old + y2 * (e1 - e2) / eta
            a2 = lo if lo > a2 else a2
            a2 = hi if hi < a2 else a2
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

        c1, c2 = y1 * (a1 - a1_old), y2 * (a2 - a2_old)
        b1 = b - e1 - c1 * k11 - c2 * k12
        b2 = b - e2 - c1 * k12 - c2 * k22
        free1, free2 = 0.0 < a1 < C, 0.0 < a2 < C
        if free1:
            b_new = b1
        elif free2:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)

        # errors += (c1 * K[i1] + c2 * K[i2]) + (b_new - b), without temporaries.
        coef1[()], coef2[()], shift[()] = c1, c2, b_new - b
        multiply(krows[i1], coef1, row1)
        multiply(krows[i2], coef2, row2)
        add(row1, row2, row1)
        add(row1, shift, row1)
        add(errors, row1, errors)
        if (0.0 < a1_old < C) != free1 or (0.0 < a2_old < C) != free2:
            # A new list, never the old one changed: a sweep may be iterating it.
            nb = [i for i in non_bound[1] if i != i1 and i != i2]
            if free1:
                insort(nb, i1)
            if free2:
                insort(nb, i2)
            non_bound = np.array(nb, dtype=np.intp), nb
        al[i1], al[i2] = a1, a2
        b = b_new
        step_budget -= 1
        return True

    def step_candidates(i2: int, e2: float, y2: float, a2_old: float, start: int) -> list[int]:
        """Rows i1 in the order (start, start + 1, ...) mod n for which
        take_step(i1, i2, e2, y2, a2_old) may succeed.

        Repeats take_step's eta > 0 acceptance rule as array operations
        with the same operands and rounding, so it keeps every row the
        scalar rule accepts. Rows with eta <= 0 (or a NaN anywhere) are
        kept for the scalar rule to decide.
        """
        alpha = np.array(al)
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

    def examine(i2: int, e2: float, y2: float, a2: float) -> bool:
        """The pair search's rare tiers, for a violator i2 whose largest-gap
        partner failed: every non-bound row, then every row, each from a
        random start."""
        nb = non_bound[1]
        start = int(rng.integers(n))
        for off in range(len(nb)):
            if take_step(nb[(start + off) % len(nb)], i2, e2, y2, a2):
                return True
        start = int(rng.integers(n))
        if n < _SCALAR_SCAN_ROWS:
            scan = chain(range(start, n), range(start))
        else:
            scan = step_candidates(i2, e2, y2, a2, start)
        for i1 in scan:
            if take_step(i1, i2, e2, y2, a2):
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
            sweep = range(n)
        else:
            sweep = non_bound[1]
        for i2 in sweep:
            e2, y2, a2 = error_at(i2), yl[i2], al[i2]
            r2 = e2 * y2
            if not ((r2 < -SMO_TOL and a2 < C) or (r2 > SMO_TOL and a2 > 0)):
                continue
            # First tier: the non-bound row with the largest error gap.
            rows, nb = non_bound
            if len(nb) > 1:
                gap = errors_at(rows)
                pivot[()] = e2
                subtract(gap, pivot, gap)
                absolute(gap, gap)
                changed = take_step(nb[gap.argmax()], i2, e2, y2, a2) or examine(i2, e2, y2, a2)
            else:
                changed = examine(i2, e2, y2, a2)
            if changed:
                num_changed += 1
                if step_budget <= 0:
                    break
        if examine_all:
            examine_all = False
        elif num_changed == 0:
            examine_all = True
    return np.array(al), b


def svm_train(
    X: np.ndarray,
    y: np.ndarray,
    k: KernelSpec,
    C: float = 1.0,
    seed: int = 0,
) -> SvmModel:
    """Train a one-vs-rest kernel SVM; deterministic given the seed."""
    check_type(C, "C", "float")
    if not (math.isfinite(C) and C > 0):
        raise ConfigError(f"C must be positive and finite, got {C!r}")
    check_seed(seed)
    X = feature_rows(X, "training features", nonempty=True)
    classes, index = class_labels(y, X.shape[0])
    k = resolve_kernel(k, X)
    K = gram(X, X, k)
    rng = np.random.default_rng(seed)
    coefs = np.zeros((len(classes), X.shape[0]))
    biases = np.zeros(len(classes))
    for ci in range(len(classes)):
        y_pm = np.where(index == ci, 1.0, -1.0)
        alpha, b = _smo_binary(K, y_pm, C, rng)
        coefs[ci] = alpha * y_pm
        biases[ci] = b

    support = np.flatnonzero(np.any(np.abs(coefs) > 0, axis=0))
    return SvmModel(X[support], coefs[:, support], biases, k, C, classes)


def decision_values(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """Per-class decision values sum_i coef_i k(s_i, x) + b, shape (|X|, n_classes)."""
    X = feature_rows(X, "input features", width=model.support_rows.shape[1])
    return gram(X, model.support_rows, model.kernel) @ model.dual_coefs.T + model.biases


def svm_predict(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties resolve to the smallest class id."""
    picks = np.argmax(decision_values(model, X), axis=1)  # first maximum, classes sorted ascending
    return np.asarray(model.classes, dtype=np.int64)[picks]
