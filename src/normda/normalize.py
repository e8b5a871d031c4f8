"""The z-score transform and the split-aware strategies built on it.

Z0-Z3 differ only in whose statistics standardize each side of a fold:
the pooled raw training rows ("pooled") or each domain's own rows ("own").
ZSCORE_SIDES states that choice once per strategy. noNorm returns the raw
rows. MinMax is the pooled standardization with location = min and
scale = max - min of the training rows, applied to both sides by the
same `zscore`.

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


# (training side, test side) of each z-score strategy; see the module docstring.
ZSCORE_SIDES = {
    NormStrategy.Z0: ("pooled", "pooled"),
    NormStrategy.Z1: ("own", "pooled"),
    NormStrategy.Z2: ("own", "own"),
    NormStrategy.Z3: ("pooled", "own"),
}


def _zscore_side(ds: DomainDataset, idx: np.ndarray, side: str, pooled: FeatureStats, *, min_rows: int):
    if side == "pooled":
        return zscore(ds.features[idx], pooled)
    out = np.empty((idx.size, ds.m))
    sub, ses = ds.subjects[idx], ds.sessions[idx]
    for key in sorted({(int(a), int(b)) for a, b in zip(sub, ses)}):
        mask = (sub == key[0]) & (ses == key[1])
        block = ds.features[idx[mask]]
        if block.shape[0] < min_rows:
            raise DegenerateDomainError(
                f"domain (subject={key[0]}, session={key[1]}) has {block.shape[0]} row(s); "
                f"per-domain statistics need at least {min_rows}"
            )
        out[mask] = zscore(block, compute_stats(block))
    return out


def apply_strategy(ds: DomainDataset, fold: Fold, strategy: NormStrategy) -> tuple[np.ndarray, np.ndarray]:
    """Return normalized (train, test) feature matrices for one fold.

    Training-side statistics are always fit before the test side is read,
    and labels are never consulted. An "own" test side rejects single-row
    domains; an "own" training side maps them to zeros.
    """
    train_raw = ds.features[fold.train_idx]
    if strategy is NormStrategy.NO_NORM:
        return train_raw, ds.features[fold.test_idx]

    if strategy is NormStrategy.MIN_MAX:
        mins = train_raw.min(axis=0)
        ranges = FeatureStats(mins, train_raw.max(axis=0) - mins)
        return zscore(train_raw, ranges), zscore(ds.features[fold.test_idx], ranges)

    train_side, test_side = ZSCORE_SIDES[strategy]
    pooled = compute_stats(train_raw)
    train = _zscore_side(ds, fold.train_idx, train_side, pooled, min_rows=1)
    return train, _zscore_side(ds, fold.test_idx, test_side, pooled, min_rows=2)
