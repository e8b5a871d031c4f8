import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normda.errors import ConfigError, DegenerateDataError, EmptyInputError, NumericError, ShapeError
from normda.shallow import (
    KernelSpec,
    gram,
    kpca_fit,
    kpca_transform,
    median_heuristic_gamma,
    mmd_sq,
    resolve_kernel,
    tca_fit,
    tca_transform,
)

LINEAR = KernelSpec("linear")


def shifted_pair(seed, n=60, dim=5, shift=10.0, noise=1.0):
    rng = np.random.default_rng(seed)
    Xs = noise * rng.normal(size=(n, dim))
    offset = np.zeros(dim)
    offset[0] = shift
    Xt = noise * rng.normal(size=(n, dim)) + offset
    return Xs, Xt


# ---------------------------------------------------------------------------
# Kernels


def test_rbf_diagonal_is_one():
    X = np.random.default_rng(0).normal(size=(7, 3))
    G = gram(X, X, KernelSpec("rbf", 0.3))
    np.testing.assert_allclose(np.diag(G), 1.0)


def test_linear_dot_product():
    assert gram(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]), LINEAR)[0, 0] == 11.0


def test_rbf_hand_value():
    G = gram(np.array([[0.0]]), np.array([[2.0]]), KernelSpec("rbf", 0.5))
    assert G[0, 0] == pytest.approx(math.exp(-2.0), abs=1e-12)


def test_gram_dimension_mismatch():
    with pytest.raises(ShapeError):
        gram(np.ones((2, 3)), np.ones((2, 4)), LINEAR)


@pytest.mark.parametrize(
    "call",
    [
        lambda Xs, Xt: tca_fit(Xs, Xt, KernelSpec(), 1),
        lambda Xs, Xt: tca_fit(Xs, Xt, KernelSpec("rbf"), 1),
        lambda Xs, Xt: mmd_sq(Xs, Xt, KernelSpec("rbf")),
        lambda Xs, Xt: mmd_sq(Xs, Xt, KernelSpec()),
    ],
    ids=["tca-linear", "tca-rbf", "mmd-rbf", "mmd-linear"],
)
def test_source_target_width_mismatch_raises_shape_error(call):
    rng = np.random.default_rng(0)
    with pytest.raises(ShapeError, match=r"^target features must be rows of width 3, got shape \(4, 2\)$"):
        call(rng.normal(size=(5, 3)), rng.normal(size=(4, 2)))


@pytest.mark.parametrize(
    "call",
    [
        lambda X: gram(X, X, LINEAR),
        lambda X: gram(X, X, KernelSpec("rbf", 1.0)),
        median_heuristic_gamma,
        lambda X: tca_fit(X[:10], X[10:], LINEAR, 2),
        lambda X: tca_fit(X[:10], X[10:], KernelSpec("rbf"), 2),
        lambda X: kpca_fit(X, LINEAR, 2),
        lambda X: kpca_fit(X, KernelSpec("rbf"), 2),
        lambda X: mmd_sq(X[:10], X[10:], LINEAR),
    ],
    ids=["gram-linear", "gram-rbf", "median", "tca-linear", "tca-rbf", "kpca-linear", "kpca-rbf", "mmd-linear"],
)
def test_overflowing_finite_rows_raise_numeric_error(call):
    # 1e160 is finite, so the input checks pass it; its square is not.
    X = np.random.default_rng(0).normal(size=(20, 2)) * 1e160
    with pytest.raises(NumericError, match="overflow float64"):
        call(X)


def test_rbf_gram_entries_and_psd():
    X = np.random.default_rng(1).normal(size=(20, 4))
    G = gram(X, X, KernelSpec("rbf", 0.7))
    assert np.all(G > 0) and np.all(G <= 1.0)
    np.testing.assert_allclose(G, G.T)
    assert np.linalg.eigvalsh(G).min() > -1e-9


def test_median_heuristic_positive():
    X = np.random.default_rng(2).normal(size=(15, 3))
    assert median_heuristic_gamma(X) > 0


def test_gram_needs_a_resolved_rbf_gamma():
    X = np.random.default_rng(3).normal(size=(6, 2))
    with pytest.raises(ConfigError, match="rbf gamma"):
        gram(X, X, KernelSpec("rbf"))
    assert resolve_kernel(KernelSpec("rbf"), X) == KernelSpec("rbf", median_heuristic_gamma(X))
    assert resolve_kernel(KernelSpec("rbf", 0.3), X) == KernelSpec("rbf", 0.3)
    assert resolve_kernel(LINEAR, X) == LINEAR


# ---------------------------------------------------------------------------
# MMD


def test_mmd_identical_sets_zero():
    for seed in range(50):
        X = np.random.default_rng(seed).normal(size=(8, 3))
        assert abs(mmd_sq(X, X, LINEAR)) < 1e-12


def test_mmd_hand_expanded_cases():
    assert mmd_sq(np.array([[0.0]]), np.array([[2.0]]), LINEAR) == pytest.approx(4.0, abs=1e-12)
    # mean(K_ss)=2, mean(K_st)=3, mean(K_tt)=5 -> 2 - 6 + 5 = 1
    assert mmd_sq(
        np.array([[0.0], [2.0]]), np.array([[1.0], [3.0]]), LINEAR
    ) == pytest.approx(1.0, abs=1e-12)


def test_mmd_symmetry_exact():
    rng = np.random.default_rng(3)
    A, B = rng.normal(size=(9, 4)), rng.normal(size=(13, 4))
    for k in (LINEAR, KernelSpec("rbf", 0.4)):
        assert mmd_sq(A, B, k) == mmd_sq(B, A, k)


def test_mmd_linear_matches_three_gram_form():
    # The two forms agree in real arithmetic. In float64 each Gram mean of
    # these sizes carries a relative round-off below (dim + log2 n) * eps,
    # about 5e-15, so the forms must agree to 1e-12 of the Gram terms' size.
    rng = np.random.default_rng(61)
    for _ in range(40):
        na, nb, dim = (int(v) for v in rng.integers(1, 40, size=3))
        offset = rng.normal(size=dim) * rng.choice([0.0, 1.0, 100.0])
        A = rng.normal(size=(na, dim)) + offset
        B = rng.normal(size=(nb, dim)) * rng.uniform(0.5, 2.0) + offset + rng.normal(size=dim)
        terms = [gram(A, A, LINEAR).mean(), gram(A, B, LINEAR).mean(), gram(B, B, LINEAR).mean()]
        three = terms[0] - 2.0 * terms[1] + terms[2]
        size = abs(terms[0]) + 2.0 * abs(terms[1]) + abs(terms[2])
        assert abs(mmd_sq(A, B, LINEAR) - three) <= 1e-12 * size


def test_mmd_empty_set():
    with pytest.raises(EmptyInputError):
        mmd_sq(np.empty((0, 2)), np.ones((3, 2)), LINEAR)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    na=st.integers(1, 12),
    nb=st.integers(1, 12),
    rbf=st.booleans(),
)
def test_mmd_nonnegative_property(seed, na, nb, rbf):
    rng = np.random.default_rng(seed)
    A, B = rng.normal(size=(na, 3)), rng.normal(size=(nb, 3))
    k = KernelSpec("rbf", 0.5) if rbf else LINEAR
    assert mmd_sq(A, B, k) >= -1e-12


# ---------------------------------------------------------------------------
# TCA


def test_tca_identical_sets_align_exactly():
    X = np.random.default_rng(4).normal(size=(25, 4))
    for k in (LINEAR, KernelSpec("rbf", 0.5)):
        model = tca_fit(X, X.copy(), k, dim=2, mu_reg=1.0)
        assert mmd_sq(tca_transform(model, X), tca_transform(model, X.copy()), LINEAR) < 1e-9


def test_tca_strictly_reduces_translation_shift():
    Xs, Xt = shifted_pair(seed=0)
    raw = mmd_sq(Xs, Xt, LINEAR)
    model = tca_fit(Xs, Xt, LINEAR, dim=2, mu_reg=1.0)
    projected = mmd_sq(tca_transform(model, Xs), tca_transform(model, Xt), LINEAR)
    assert projected < raw


def test_tca_halves_mmd_on_generated_domains():
    from normda.dataset import SyntheticShiftConfig, generate_synthetic

    ds = generate_synthetic(SyntheticShiftConfig(
        n_subjects=2, n_sessions=1, n_classes=2, samples_per_class_per_domain=50,
        dim=6, class_separation=4.0, domain_shift_scale=5.0, noise_std=1.0, seed=8,
    ))
    Xs = ds.features[ds.subjects == 0]
    Xt = ds.features[ds.subjects == 1]
    raw = mmd_sq(Xs, Xt, LINEAR)
    model = tca_fit(Xs, Xt, LINEAR, dim=2, mu_reg=1.0)
    projected = mmd_sq(tca_transform(model, Xs), tca_transform(model, Xt), LINEAR)
    assert projected <= 0.5 * raw


def test_tca_deterministic():
    Xs, Xt = shifted_pair(seed=1)
    a = tca_fit(Xs, Xt, LINEAR, dim=3, mu_reg=1.0)
    b = tca_fit(Xs, Xt, LINEAR, dim=3, mu_reg=1.0)
    np.testing.assert_array_equal(a.projection, b.projection)


def test_tca_transform_contracts():
    Xs, Xt = shifted_pair(seed=2, n=20)
    model = tca_fit(Xs, Xt, LINEAR, dim=2, mu_reg=1.0)
    basis_scores = tca_transform(model, model.basis)
    np.testing.assert_allclose(
        basis_scores, gram(model.basis, model.basis, LINEAR) @ model.projection
    )
    assert tca_transform(model, Xs).shape == (20, 2)
    for kernel in (LINEAR, KernelSpec("rbf")):
        empty = tca_transform(tca_fit(Xs, Xt, kernel, dim=2), np.empty((0, 5)))
        assert empty.shape == (0, 2) and empty.dtype == np.float64


def test_tca_dim_too_large():
    Xs, Xt = shifted_pair(seed=3, n=5)
    with pytest.raises(ShapeError):
        tca_fit(Xs, Xt, LINEAR, dim=11, mu_reg=1.0)


@pytest.mark.parametrize("mu_reg", [math.nan, math.inf])
def test_tca_non_finite_mu_reg_rejected(mu_reg):
    Xs, Xt = shifted_pair(seed=3, n=5)
    with pytest.raises(ConfigError, match=rf"^mu_reg must be finite, got {mu_reg!r}$"):
        tca_fit(Xs, Xt, LINEAR, dim=2, mu_reg=mu_reg)


# ---------------------------------------------------------------------------
# KPCA


def pca_scores(X, dim):
    Xc = X - X.mean(axis=0)
    eigvals, eigvecs = np.linalg.eigh(Xc.T @ Xc)
    order = np.argsort(eigvals)[::-1][:dim]
    return Xc @ eigvecs[:, order]


def test_kpca_linear_equals_pca():
    X = np.random.default_rng(5).normal(size=(10, 3))
    model = kpca_fit(X, LINEAR, dim=3)
    scores = kpca_transform(model, X)
    ref = pca_scores(X, 3)
    for j in range(3):
        corr = np.corrcoef(scores[:, j], ref[:, j])[0, 1]
        assert abs(corr) > 1 - 1e-9
    empty = kpca_transform(model, np.empty((0, 3)))
    assert empty.shape == (0, 3) and empty.dtype == np.float64


def test_kpca_degenerate_data_rejected():
    X = np.tile([[1.0, 2.0]], (6, 1))
    with pytest.raises(DegenerateDataError):
        kpca_fit(X, LINEAR, dim=2)


def test_kpca_rank_bound():
    rng = np.random.default_rng(6)
    base = rng.normal(size=(8, 2))
    X = base @ rng.normal(size=(2, 5))  # rank 2 in 5-d
    model = kpca_fit(X, LINEAR, dim=8)
    assert model.alphas.shape[1] <= 2


def test_kpca_transform_consistency():
    X = np.random.default_rng(7).normal(size=(12, 4))
    model = kpca_fit(X, KernelSpec("rbf", 0.3), dim=4)
    train_scores = kpca_transform(model, X)
    # a duplicate of basis row i lands exactly on that row's training score
    np.testing.assert_allclose(kpca_transform(model, X[3:4]), train_scores[3:4], atol=1e-9)
    empty = kpca_transform(model, np.empty((0, 4)))
    assert empty.shape == (0, 4) and empty.dtype == np.float64


def test_kpca_linear_mean_point_scores_zero():
    X = np.random.default_rng(8).normal(size=(15, 4))
    model = kpca_fit(X, LINEAR, dim=3)
    scores = kpca_transform(model, X.mean(axis=0, keepdims=True))
    assert np.all(np.abs(scores) < 1e-9)
