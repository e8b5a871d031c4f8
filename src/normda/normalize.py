"""Z-score and min-max transforms plus the split-aware strategies Z0-Z3.

The strategies differ in whose statistics normalize which side of a fold:

* Z0     fit mean/std on the pooled raw training rows, apply to both sides
* Z1     each training domain uses its own stats; test uses pooled raw
         training stats
* Z2     every domain, train or test, uses its own stats
* Z3     train uses pooled raw training stats; each test domain its own
* MinMax min/max fit on the training rows, applied to both sides

Z2 and Z3 are transductive: their test-side transform reads test-side
feature statistics (never labels), which matches the unsupervised-DA
assumption that unlabeled test data is available at training time.
Standard deviations use the population (divide-by-n) convention.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .dataset import DomainDataset, Fold
from .errors import ConfigError, DegenerateDomainError, EmptyInputError, ShapeError

EPS = 1e-8


class NormStrategy(enum.Enum):
    """Split-aware normalization strategies."""

    NO_NORM = "noNorm"
    Z0 = "Z0"
    Z1 = "Z1"
    Z2 = "Z2"
    Z3 = "Z3"
    MIN_MAX = "MinMax"

    @classmethod
    def from_name(cls, name: str) -> "NormStrategy":
        key = str(name).lower()
        for member in cls:
            if key in (member.value.lower(), member.name.lower()):
                return member
        raise ConfigError(f"unknown normalization strategy {name!r}")


@dataclass(frozen=True)
class FeatureStats:
    """Per-feature mean and population standard deviation."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        sigma = np.asarray(self.sigma, dtype=np.float64)
        if mu.shape != sigma.shape or mu.ndim != 1:
            raise ShapeError("mu and sigma must be 1-D vectors of equal length")
        if np.any(sigma < 0):
            raise ConfigError("sigma must be non-negative")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)


def compute_stats(X: np.ndarray) -> FeatureStats:
    """Column means and population standard deviations of a nonempty matrix."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyInputError("cannot compute statistics of an empty matrix")
    return FeatureStats(X.mean(axis=0), X.std(axis=0, ddof=0))


def zscore(X: np.ndarray, stats: FeatureStats) -> np.ndarray:
    """(X - mu) / sigma with sigma floored at EPS, so constant columns map to 0."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != stats.mu.shape[0]:
        raise ShapeError(f"matrix has {X.shape[-1]} features, stats have {stats.mu.shape[0]}")
    return (X - stats.mu) / np.maximum(stats.sigma, EPS)


def minmax(X: np.ndarray, mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
    """(X - mins) / (maxs - mins) with the range floored at EPS; no clipping."""
    X = np.asarray(X, dtype=np.float64)
    mins = np.asarray(mins, dtype=np.float64)
    maxs = np.asarray(maxs, dtype=np.float64)
    if mins.shape != maxs.shape or mins.ndim != 1 or X.shape[1] != mins.shape[0]:
        raise ShapeError("mins/maxs must be length-m vectors matching the matrix")
    return (X - mins) / np.maximum(maxs - mins, EPS)


def _per_domain_zscore(ds: DomainDataset, idx: np.ndarray, *, min_rows: int = 1) -> np.ndarray:
    """Z-score each domain's block within `idx` using that block's own stats."""
    out = np.empty((idx.size, ds.m))
    sub, ses = ds.subjects[idx], ds.sessions[idx]
    for key in sorted({(int(a), int(b)) for a, b in zip(sub, ses)}):
        mask = (sub == key[0]) & (ses == key[1])
        block = ds.features[idx[mask]]
        if block.shape[0] < min_rows:
            raise DegenerateDomainError(
                f"domain (subject={key[0]}, session={key[1]}) has {block.shape[0]} row(s); "
                "per-domain statistics need at least 2"
            )
        out[mask] = zscore(block, compute_stats(block))
    return out


def apply_strategy(ds: DomainDataset, fold: Fold, strategy: NormStrategy) -> tuple[np.ndarray, np.ndarray]:
    """Return normalized (train, test) feature matrices for one fold.

    Training-side statistics are always fit before the test side is read,
    and labels are never consulted. Z2/Z3 reject single-row test domains
    rather than eps-normalizing a meaningless one-sample deviation.
    """
    train_raw = ds.features[fold.train_idx]
    if strategy is NormStrategy.NO_NORM:
        return train_raw.copy(), ds.features[fold.test_idx].copy()

    if strategy is NormStrategy.MIN_MAX:
        mins = train_raw.min(axis=0)
        maxs = train_raw.max(axis=0)
        return (
            minmax(train_raw, mins, maxs),
            minmax(ds.features[fold.test_idx], mins, maxs),
        )

    pooled = compute_stats(train_raw)
    if strategy is NormStrategy.Z0:
        train = zscore(train_raw, pooled)
        test = zscore(ds.features[fold.test_idx], pooled)
    elif strategy is NormStrategy.Z1:
        train = _per_domain_zscore(ds, fold.train_idx)
        test = zscore(ds.features[fold.test_idx], pooled)
    elif strategy is NormStrategy.Z2:
        train = _per_domain_zscore(ds, fold.train_idx)
        test = _per_domain_zscore(ds, fold.test_idx, min_rows=2)
    elif strategy is NormStrategy.Z3:
        train = zscore(train_raw, pooled)
        test = _per_domain_zscore(ds, fold.test_idx, min_rows=2)
    else:
        raise ValueError(f"unhandled strategy {strategy}")
    return train, test
