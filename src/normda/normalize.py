"""The z-score transform and the split-aware strategies built on it.

SIDES states, once per strategy, how each side of a fold is mapped: raw,
or by `zscore` with the mean and population standard deviation or the min
and range of the pooled raw training rows, or with each domain's own mean
and standard deviation. Z2 and Z3 read test-side feature statistics, never
labels: like unsupervised DA, they assume unlabeled test data at training time.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .dataset import DomainDataset, Fold
from .errors import ConfigError, DegenerateDomainError, ProtocolError, ShapeError, feature_rows

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
    """Per-feature location and scale: the mean and population standard
    deviation for z-scores, the min and range for MinMax."""

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
    X = feature_rows(X, "features", nonempty=True)
    return FeatureStats(X.mean(axis=0), X.std(axis=0, ddof=0))


def zscore(X: np.ndarray, stats: FeatureStats) -> np.ndarray:
    """(X - mu) / sigma with sigma floored at EPS, so constant columns map to 0."""
    X = feature_rows(X, "features", width=stats.mu.shape[0])
    return (X - stats.mu) / np.maximum(stats.sigma, EPS)


class Side(NamedTuple):
    own: bool  # stats of each domain's own rows, else of the pooled raw training rows
    stats: Callable[[np.ndarray], FeatureStats] | None  # None keeps the raw rows


RAW = Side(False, None)
POOLED = Side(False, compute_stats)
POOLED_RANGE = Side(False, lambda X: FeatureStats(X.min(axis=0), np.ptp(X, axis=0)))
OWN = Side(True, compute_stats)

SIDES = {
    NormStrategy.NO_NORM: (RAW, RAW),
    NormStrategy.Z0: (POOLED, POOLED),
    NormStrategy.Z1: (OWN, POOLED),
    NormStrategy.Z2: (OWN, OWN),
    NormStrategy.Z3: (POOLED, OWN),
    NormStrategy.MIN_MAX: (POOLED_RANGE, POOLED_RANGE),
}


def _apply_side(ds: DomainDataset, idx: np.ndarray, side: Side, pooled: Callable, *, min_rows: int):
    X = ds.features[idx]
    if side.stats is None:
        return X
    if not side.own:
        return zscore(X, pooled(side.stats))
    out = np.empty_like(X)
    sub, ses = ds.subjects[idx], ds.sessions[idx]
    for key in sorted({(int(a), int(b)) for a, b in zip(sub, ses)}):
        mask = (sub == key[0]) & (ses == key[1])
        block = X[mask]
        if block.shape[0] < min_rows:
            raise DegenerateDomainError(
                f"domain (subject={key[0]}, session={key[1]}) has {block.shape[0]} row(s); "
                f"per-domain statistics need at least {min_rows}"
            )
        out[mask] = zscore(block, side.stats(block))
    return out


def apply_strategy(ds: DomainDataset, fold: Fold, strategy: NormStrategy) -> tuple[np.ndarray, np.ndarray]:
    """Normalized (train, test) feature matrices for one fold. Pooled
    statistics, each computed once, come from the raw training rows alone,
    and labels are never read. An "own" test side rejects one-row domains;
    an "own" training side maps them to zeros. A fold that names a row
    past the dataset's last is rejected."""
    if max(fold.train_idx.max(), fold.test_idx.max()) >= ds.n:
        raise ProtocolError(f"fold {fold.name!r}: indices must be below the dataset's {ds.n} rows")
    train_side, test_side = SIDES[strategy]
    pooled = functools.cache(lambda stats: stats(ds.features[fold.train_idx]))
    train = _apply_side(ds, fold.train_idx, train_side, pooled, min_rows=1)
    return train, _apply_side(ds, fold.test_idx, test_side, pooled, min_rows=2)
