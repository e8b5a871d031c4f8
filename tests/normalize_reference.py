"""apply_strategy as it was before the strategies became rows of one
table, frozen as a reference.

That version returned the raw rows for noNorm and ran MinMax in its own
branch, and read only the four z-score strategies from a table of
("pooled" or "own") sides. This module keeps that form, with its own copy
of the statistics and z-score arithmetic, so test_normalize.py can assert
that the table gives the same bits for every strategy.
"""

import numpy as np

from normda.errors import DegenerateDomainError
from normda.normalize import NormStrategy

EPS = 1e-8

ZSCORE_SIDES = {
    NormStrategy.Z0: ("pooled", "pooled"),
    NormStrategy.Z1: ("own", "pooled"),
    NormStrategy.Z2: ("own", "own"),
    NormStrategy.Z3: ("pooled", "own"),
}


def zscore(X, mu, sigma):
    return (X - mu) / np.maximum(sigma, EPS)


def _zscore_side(ds, idx, side, pooled, *, min_rows):
    if side == "pooled":
        return zscore(ds.features[idx], *pooled)
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
        out[mask] = zscore(block, block.mean(axis=0), block.std(axis=0, ddof=0))
    return out


def apply_strategy(ds, fold, strategy):
    train_raw = ds.features[fold.train_idx]
    if strategy is NormStrategy.NO_NORM:
        return train_raw, ds.features[fold.test_idx]

    if strategy is NormStrategy.MIN_MAX:
        mins = train_raw.min(axis=0)
        ranges = (mins, train_raw.max(axis=0) - mins)
        return zscore(train_raw, *ranges), zscore(ds.features[fold.test_idx], *ranges)

    train_side, test_side = ZSCORE_SIDES[strategy]
    pooled = (train_raw.mean(axis=0), train_raw.std(axis=0, ddof=0))
    train = _zscore_side(ds, fold.train_idx, train_side, pooled, min_rows=1)
    return train, _zscore_side(ds, fold.test_idx, test_side, pooled, min_rows=2)
