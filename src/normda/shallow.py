"""Kernels, the MMD estimator, and the projection-based DA methods TCA and KPCA.

The squared maximum mean discrepancy is the biased V-statistic
mean(K_ss) - 2 mean(K_st) + mean(K_tt), i.e. the squared RKHS distance
between the two empirical kernel mean embeddings including diagonal terms.
Under the linear kernel that distance is ||mean(X_s) - mean(X_t)||^2,
which mmd_sq computes directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ConfigError, DegenerateDataError, NumericError, ShapeError, bounded, check_field_types, check_type, feature_rows
)

KPCA_EIGVAL_RTOL = 1e-10


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice: "linear" or "rbf" (gamma is the rbf bandwidth; None
    takes the median heuristic, see resolve_kernel)."""

    kind: str = "linear"
    gamma: float | None = bounded(None, low=0, above=True)

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in ("linear", "rbf"):
            raise ConfigError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "linear" and self.gamma is not None:
            raise ConfigError(f"a linear kernel takes no gamma, got {self.gamma!r}")


def median_heuristic_gamma(X: np.ndarray) -> float:
    """gamma = 1 / (2 median^2) over pairwise Euclidean distances of X."""
    X = feature_rows(X, "features")
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = _sq_dists(X, X)
    if not np.isfinite(d2).all():
        raise NumericError("pairwise squared distances overflow float64; the rbf median heuristic has no finite gamma")
    upper = d2[np.triu_indices(d2.shape[0], k=1)]
    med = float(np.sqrt(np.median(upper))) if upper.size else 1.0
    if med <= 0:
        return 1.0
    return 1.0 / (2.0 * med * med)


def _sq_dists(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    xx = np.sum(X * X, axis=1)[:, None]
    yy = np.sum(Y * Y, axis=1)[None, :]
    return np.maximum(xx + yy - 2.0 * X @ Y.T, 0.0)


def resolve_kernel(k: KernelSpec, X: np.ndarray) -> KernelSpec:
    """`k` with its gamma set: an rbf spec without one takes the median
    heuristic on X. Fits resolve once, and their transforms reuse the result."""
    if k.kind == "rbf" and k.gamma is None:
        return KernelSpec("rbf", median_heuristic_gamma(X))
    return k


def gram(X: np.ndarray, Y: np.ndarray, k: KernelSpec) -> np.ndarray:
    """Pairwise kernel evaluations, |X| x |Y|, under a resolved kernel (see
    resolve_kernel)."""
    X = feature_rows(X, "X features")
    Y = feature_rows(Y, "Y features", width=X.shape[1])
    if k.kind == "rbf" and k.gamma is None:
        raise ConfigError("gram needs an rbf gamma; resolve the kernel first")
    # Finite rows can still overflow: 1e160 squares past float64's range.
    with np.errstate(over="ignore", invalid="ignore"):
        G = X @ Y.T if k.kind == "linear" else np.exp(-k.gamma * _sq_dists(X, Y))
    if not np.isfinite(G).all():
        raise NumericError(f"{k.kind} Gram matrix has non-finite entries: the features overflow float64")
    return G


def mmd_sq(Xs: np.ndarray, Xt: np.ndarray, k: KernelSpec) -> float:
    """Squared MMD between two samples; symmetric and >= 0 up to round-off."""
    check_type(k, "k", KernelSpec)
    Xs = feature_rows(Xs, "source features", nonempty=True)
    Xt = feature_rows(Xt, "target features", width=Xs.shape[1], nonempty=True)
    if k.kind == "linear":
        # With k(x, y) = x.y the three Gram means collapse to the squared
        # distance between the two sample means; no Gram matrix is built.
        # Finite rows can still overflow, as in gram.
        with np.errstate(over="ignore", invalid="ignore"):
            d = Xs.mean(axis=0) - Xt.mean(axis=0)
            mmd = float(d @ d)
        if not math.isfinite(mmd):
            raise NumericError("linear MMD is not finite: the features overflow float64")
        return mmd
    # Canonical argument order makes the float arithmetic, and hence the
    # result, exactly invariant under swapping the two sets.
    if (Xs.shape[0], Xs.tobytes()) > (Xt.shape[0], Xt.tobytes()):
        Xs, Xt = Xt, Xs
    k = resolve_kernel(k, np.vstack([Xs, Xt]))  # one bandwidth for all three blocks
    return float(
        gram(Xs, Xs, k).mean() - 2.0 * gram(Xs, Xt, k).mean() + gram(Xt, Xt, k).mean()
    )


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        if out[i, j] < 0:
            out[:, j] = -out[:, j]
    return out


@dataclass(frozen=True)
class TcaModel:
    """Transfer-component projection over stored basis rows (source + target)."""

    basis: np.ndarray
    projection: np.ndarray
    kernel: KernelSpec


def tca_fit(
    Xs: np.ndarray, Xt: np.ndarray, k: KernelSpec, dim: int, mu_reg: float = 1.0
) -> TcaModel:
    """Fit a projection that preserves variance while shrinking source/target MMD.

    Stacks source and target, builds the MMD coefficient matrix L
    (1/ns^2 source pairs, 1/nt^2 target pairs, -1/(ns nt) cross) and the
    centering matrix H, then keeps the top-`dim` eigenvectors of the
    symmetric-definite pencil (K H K, K L K + mu_reg I) by descending
    eigenvalue. Eigenvector scale is arbitrary, so each projection column
    is normalized to unit variance over the basis scores (keeping
    downstream classifiers well-conditioned); signs make the
    largest-magnitude entry positive.
    """
    check_type(k, "k", KernelSpec)
    check_type(dim, "dim", "int")
    check_type(mu_reg, "mu_reg", "float", low=0, above=True)
    Xs = feature_rows(Xs, "source features", nonempty=True)
    Xt = feature_rows(Xt, "target features", width=Xs.shape[1], nonempty=True)
    ns, nt = Xs.shape[0], Xt.shape[0]
    n = ns + nt
    # K H K has rank at most d under a linear kernel: a component past d
    # would be round-off scaled to unit variance.
    limit = min(n, Xs.shape[1]) if k.kind == "linear" else n
    if not 1 <= dim <= limit:
        raise ShapeError(f"dim must be in [1, {limit}], got {dim}")

    X = np.vstack([Xs, Xt])
    k = resolve_kernel(k, X)
    K = gram(X, X, k)

    e = np.concatenate([np.full(ns, 1.0 / ns), np.full(nt, -1.0 / nt)])
    L = np.outer(e, e)
    H = np.eye(n) - np.full((n, n), 1.0 / n)

    a = K @ L @ K + mu_reg * np.eye(n)
    b = K @ H @ K
    try:
        eigvals, eigvecs = scipy.linalg.eigh(b, a)
    except scipy.linalg.LinAlgError as exc:
        raise NumericError(f"TCA eigenproblem failed despite regularizer: {exc}") from exc
    if not np.all(np.isfinite(eigvecs)):
        raise NumericError("TCA eigenvectors are not finite")
    order = np.argsort(eigvals)[::-1][:dim]
    projection = _fix_signs(eigvecs[:, order])
    score_std = (K @ projection).std(axis=0, ddof=0)
    projection = projection / np.maximum(score_std, 1e-12)
    return TcaModel(X, projection, k)


def tca_transform(model: TcaModel, X: np.ndarray) -> np.ndarray:
    """Project rows of X into the transfer-component space."""
    X = feature_rows(X, "input features", width=model.basis.shape[1])
    return gram(X, model.basis, model.kernel) @ model.projection


@dataclass(frozen=True)
class KpcaModel:
    """Kernel-PCA projection: basis rows, scaled eigenvectors, centering means."""

    basis: np.ndarray
    alphas: np.ndarray
    kernel: KernelSpec
    col_means: np.ndarray
    total_mean: float


def kpca_fit(X: np.ndarray, k: KernelSpec, dim: int) -> KpcaModel:
    """Eigendecompose the doubly-centered Gram matrix of X.

    Eigenvectors are scaled by 1/sqrt(eigenvalue) so each principal axis has
    unit norm in feature space; components with eigenvalue below
    1e-10 * max are dropped, shrinking dim on rank-deficient data.
    """
    check_type(k, "k", KernelSpec)
    check_type(dim, "dim", "int")
    X = feature_rows(X, "training features", nonempty=True)
    n = X.shape[0]
    if not 1 <= dim <= n:
        raise ShapeError(f"dim must be in [1, {n}], got {dim}")
    k = resolve_kernel(k, X)

    K = gram(X, X, k)
    col_means = K.mean(axis=0)
    total_mean = float(K.mean())
    Kc = K - col_means[None, :] - col_means[:, None] + total_mean

    try:
        eigvals, eigvecs = scipy.linalg.eigh(Kc)
    except scipy.linalg.LinAlgError as exc:
        raise NumericError(f"kernel-PCA eigenproblem failed: {exc}") from exc
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    cutoff = KPCA_EIGVAL_RTOL * max(float(eigvals[0]), 0.0)
    keep = min(dim, int(np.sum(eigvals > cutoff)))
    if keep == 0 or eigvals[0] <= 0:
        raise DegenerateDataError("all kernel-PCA eigenvalues are below tolerance")
    eigvecs = _fix_signs(eigvecs[:, :keep])
    alphas = eigvecs / np.sqrt(eigvals[:keep])[None, :]
    return KpcaModel(X.copy(), alphas, k, col_means, total_mean)


def kpca_transform(model: KpcaModel, X: np.ndarray) -> np.ndarray:
    """Score rows of X against the fitted kernel principal components."""
    X = feature_rows(X, "input features", width=model.basis.shape[1])
    Kt = gram(X, model.basis, model.kernel)
    Kt_c = (
        Kt
        - Kt.mean(axis=1, keepdims=True)
        - model.col_means[None, :]
        + model.total_mean
    )
    return Kt_c @ model.alphas
