import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import normalize_reference
from normda.dataset import DomainDataset, Fold, folds_for
from normda.errors import DegenerateDomainError, EmptyInputError, ProtocolError, ShapeError
from normda.normalize import (
    EPS,
    FeatureStats,
    NormStrategy,
    apply_strategy,
    compute_stats,
    zscore,
)


def column(values):
    return np.asarray(values, dtype=float).reshape(-1, 1)


def test_compute_stats_hand_cases():
    s = compute_stats(column([0.0, 2.0]))
    assert s.mu[0] == 1.0 and s.sigma[0] == 1.0
    s = compute_stats(column([5.0, 5.0, 5.0]))
    assert s.mu[0] == 5.0 and s.sigma[0] == 0.0
    s = compute_stats(column([1.0, 2.0, 3.0, 4.0]))
    assert s.mu[0] == 2.5
    assert abs(s.sigma[0] - math.sqrt(1.25)) < 1e-12


def test_compute_stats_empty():
    with pytest.raises(EmptyInputError):
        compute_stats(np.empty((0, 3)))


def test_zscore_identity_when_standard():
    X = np.array([[0.5, -1.0], [-0.5, 1.0]])
    out = zscore(X, FeatureStats(np.zeros(2), np.ones(2)))
    np.testing.assert_allclose(out, X)


def test_zscore_hand_case():
    X = column([0.0, 2.0])
    out = zscore(X, compute_stats(X))
    np.testing.assert_allclose(out[:, 0], [-1.0, 1.0])


def test_zscore_constant_column_maps_to_zero():
    X = column([3.0, 3.0, 3.0])
    out = zscore(X, compute_stats(X))
    np.testing.assert_array_equal(out, np.zeros((3, 1)))


def test_zscore_shape_mismatch():
    with pytest.raises(ShapeError):
        zscore(np.ones((2, 3)), FeatureStats(np.zeros(2), np.ones(2)))


def range_stats(X):
    """MinMax's statistics: location = column min, scale = column range."""
    return FeatureStats(X.min(axis=0), X.max(axis=0) - X.min(axis=0))


def test_minmax_cases():
    X = column([0.0, 10.0])
    out = zscore(X, range_stats(X))
    np.testing.assert_allclose(out[:, 0], [0.0, 1.0])
    const = column([4.0, 4.0])
    np.testing.assert_array_equal(zscore(const, range_stats(const)), np.zeros((2, 1)))
    test = zscore(column([12.0]), range_stats(X))
    assert test[0, 0] == pytest.approx(1.2)  # out-of-range values are not clipped


# ---------------------------------------------------------------------------
# Strategies


def two_domain_toy():
    # Domain A (subject 0) offset by +100, domain B (subject 1) raw,
    # subject 2 is the single-row test side.
    features = column([99.0, 101.0, -1.0, 1.0, 0.0])
    return DomainDataset(
        features,
        np.array([0, 1, 0, 1, 0]),
        np.array([0, 0, 1, 1, 2]),
        np.zeros(5, dtype=int),
    )


def test_z1_removes_offset_z0_leaves_residual():
    ds = two_domain_toy()
    fold = Fold(np.array([0, 1, 2, 3]), np.array([4]), "toy")
    # pooled raw train stats: mean 50, std sqrt(2501)
    sigma = math.sqrt(2501.0)

    z0_train, z0_test = apply_strategy(ds, fold, NormStrategy.Z0)
    assert z0_train[:2].mean() == pytest.approx(100.0 * (1 - 2 / 4) / sigma)
    assert z0_test[0, 0] == pytest.approx((0.0 - 50.0) / sigma)

    z1_train, z1_test = apply_strategy(ds, fold, NormStrategy.Z1)
    assert z1_train[:2].mean() == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(z1_train[:, 0], [-1.0, 1.0, -1.0, 1.0])
    # test side still uses pooled raw training stats
    assert z1_test[0, 0] == pytest.approx((0.0 - 50.0) / sigma)


def make_multidomain(seed=0, n_subjects=3, rows=12):
    rng = np.random.default_rng(seed)
    feats, subs, sess, labels = [], [], [], []
    for s in range(n_subjects):
        feats.append(rng.normal(loc=3.0 * s, scale=1.0 + s, size=(rows, 4)))
        subs += [s] * rows
        sess += [0] * (rows // 2) + [1] * (rows - rows // 2)
        labels += [0, 1] * (rows // 2)
    return DomainDataset(np.vstack(feats), np.array(labels), np.array(subs), np.array(sess))


def test_z2_every_domain_standardized():
    ds = make_multidomain()
    fold = Fold(np.flatnonzero(ds.subjects != 2), np.flatnonzero(ds.subjects == 2), "f")
    train, test = apply_strategy(ds, fold, NormStrategy.Z2)
    for side, idx in ((train, fold.train_idx), (test, fold.test_idx)):
        subs, sess = ds.subjects[idx], ds.sessions[idx]
        for key in {(int(a), int(b)) for a, b in zip(subs, sess)}:
            block = side[(subs == key[0]) & (sess == key[1])]
            assert np.all(np.abs(block.mean(axis=0)) < 1e-9)
            assert np.all(np.abs(block.std(axis=0, ddof=0) - 1.0) < 1e-9)


def test_z0_on_standard_train_leaves_train_unchanged():
    rng = np.random.default_rng(1)
    raw = rng.normal(size=(40, 3))
    raw = (raw - raw[:30].mean(axis=0)) / raw[:30].std(axis=0, ddof=0)  # train block standard
    ds = DomainDataset(raw, np.zeros(40, dtype=int), np.r_[np.zeros(30, int), np.ones(10, int)], np.zeros(40, int))
    fold = Fold(np.arange(30), np.arange(30, 40), "f")
    train, test = apply_strategy(ds, fold, NormStrategy.Z0)
    np.testing.assert_allclose(train, raw[:30], atol=1e-12)
    np.testing.assert_allclose(test, raw[30:], atol=1e-12)  # same (identity) stats


def test_z3_pooled_train_per_domain_test():
    ds = make_multidomain()
    fold = Fold(np.flatnonzero(ds.subjects != 2), np.flatnonzero(ds.subjects == 2), "f")
    train, test = apply_strategy(ds, fold, NormStrategy.Z3)
    pooled = compute_stats(ds.features[fold.train_idx])
    np.testing.assert_allclose(train, zscore(ds.features[fold.train_idx], pooled), atol=1e-12)
    sess = ds.sessions[fold.test_idx]
    for s in (0, 1):
        block = test[sess == s]
        assert np.all(np.abs(block.mean(axis=0)) < 1e-9)


def test_minmax_strategy_fit_on_train_only():
    ds = make_multidomain()
    fold = Fold(np.flatnonzero(ds.subjects != 2), np.flatnonzero(ds.subjects == 2), "f")
    train, test = apply_strategy(ds, fold, NormStrategy.MIN_MAX)
    assert train.min() == pytest.approx(0.0) and train.max() == pytest.approx(1.0)
    assert test.max() > 1.0 or test.min() < 0.0  # shifted test spills out of [0, 1]


def test_minmax_strategy_matches_range_formula_bitwise():
    ds = make_multidomain()
    feats = np.array(ds.features)
    feats[:, 1] = 7.0  # a constant column: range 0, floored at EPS
    feats[ds.subjects == 2, 2] += 50.0  # test rows above the training range
    ds = DomainDataset(feats, ds.labels, ds.subjects, ds.sessions)
    fold = Fold(np.flatnonzero(ds.subjects != 2), np.flatnonzero(ds.subjects == 2), "f")
    mins = feats[fold.train_idx].min(axis=0)
    maxs = feats[fold.train_idx].max(axis=0)
    train, test = apply_strategy(ds, fold, NormStrategy.MIN_MAX)
    assert np.array_equal(train, (feats[fold.train_idx] - mins) / np.maximum(maxs - mins, EPS))
    assert np.array_equal(test, (feats[fold.test_idx] - mins) / np.maximum(maxs - mins, EPS))
    assert np.all(test[:, 1] == 0.0) and np.all(test[:, 2] > 1.0)


def test_no_norm_returns_raw_copies():
    ds = make_multidomain()
    fold = Fold(np.flatnonzero(ds.subjects != 0), np.flatnonzero(ds.subjects == 0), "f")
    train, test = apply_strategy(ds, fold, NormStrategy.NO_NORM)
    np.testing.assert_array_equal(train, ds.features[fold.train_idx])
    train[0, 0] = 123.0  # mutating the copy must not touch the dataset
    assert ds.features[fold.train_idx][0, 0] != 123.0


def test_single_row_test_domain_rejected_for_z2_z3():
    ds = two_domain_toy()
    fold = Fold(np.array([0, 1, 2, 3]), np.array([4]), "toy")
    for strategy in (NormStrategy.Z2, NormStrategy.Z3):
        with pytest.raises(DegenerateDomainError):
            apply_strategy(ds, fold, strategy)
    # Z0/Z1/MinMax accept the same fold
    for strategy in (NormStrategy.Z0, NormStrategy.Z1, NormStrategy.MIN_MAX):
        apply_strategy(ds, fold, strategy)


def test_single_row_training_domain_zero_under_own_pooled_under_pooled():
    # Subject 0 has one training row. An "own" training side (Z1/Z2) maps
    # it to zero; a "pooled" one (Z0/Z3) standardizes it with the pooled
    # training statistics. Neither rejects it, unlike a one-row test domain.
    ds = DomainDataset(
        column([5.0, 1.0, 3.0, 0.0, 2.0]),
        np.array([0, 0, 1, 0, 1]),
        np.array([0, 1, 1, 2, 2]),
        np.zeros(5, dtype=int),
    )
    fold = Fold(np.array([0, 1, 2]), np.array([3, 4]), "toy")
    pooled = zscore(ds.features[:3], compute_stats(ds.features[:3]))
    assert pooled[0, 0] == pytest.approx(2.0 / math.sqrt(8.0 / 3.0))
    for strategy in (NormStrategy.Z1, NormStrategy.Z2):
        train, _ = apply_strategy(ds, fold, strategy)
        np.testing.assert_array_equal(train[:, 0], [0.0, -1.0, 1.0])
    for strategy in (NormStrategy.Z0, NormStrategy.Z3):
        train, _ = apply_strategy(ds, fold, strategy)
        np.testing.assert_array_equal(train, pooled)


def test_apply_strategy_ignores_test_features_and_all_labels():
    ds = make_multidomain(seed=5)
    fold = Fold(np.flatnonzero(ds.subjects != 1), np.flatnonzero(ds.subjects == 1), "f")
    feats = ds.features.copy()
    feats[fold.test_idx] += 1e6  # corrupt the test side
    corrupted = DomainDataset(feats, 1 - ds.labels, ds.subjects, ds.sessions)
    for strategy in (NormStrategy.Z0, NormStrategy.Z1, NormStrategy.MIN_MAX):
        train_a, _ = apply_strategy(ds, fold, strategy)
        train_b, _ = apply_strategy(corrupted, fold, strategy)
        np.testing.assert_array_equal(train_a, train_b)


def test_apply_strategy_never_reads_labels():
    ds = make_multidomain(seed=6)
    fold = Fold(np.flatnonzero(ds.subjects != 1), np.flatnonzero(ds.subjects == 1), "f")
    relabeled = DomainDataset(ds.features, 1 - ds.labels, ds.subjects, ds.sessions)
    for strategy in NormStrategy:
        train_a, test_a = apply_strategy(ds, fold, strategy)
        train_b, test_b = apply_strategy(relabeled, fold, strategy)
        np.testing.assert_array_equal(train_a, train_b)
        np.testing.assert_array_equal(test_a, test_b)


def reference_dataset():
    # Four subjects with three sessions of 6 rows each, except a one-row
    # session 0 of subject 1, each domain with its own location and scale;
    # column 1 is constant.
    rng = np.random.default_rng(11)
    feats, subs, sess = [], [], []
    for s in range(4):
        for e in range(3):
            rows = 1 if (s, e) == (1, 0) else 6
            feats.append(rng.normal(loc=2.0 * s - e, scale=0.5 + s + e, size=(rows, 4)))
            subs += [s] * rows
            sess += [e] * rows
    feats = np.vstack(feats)
    feats[:, 1] = 7.0
    return DomainDataset(feats, np.arange(len(subs)) % 2, np.array(subs), np.array(sess))


def outcome(apply, ds, fold, strategy):
    try:
        return apply(ds, fold, strategy)
    except DegenerateDomainError as exc:
        return str(exc)


@pytest.mark.parametrize("protocol", ["loso", "hlso"])
def test_apply_strategy_matches_frozen_reference_bitwise(protocol):
    ds = reference_dataset()
    rejected = 0
    for fold in folds_for(ds, protocol):
        for strategy in NormStrategy:
            got = outcome(apply_strategy, ds, fold, strategy)
            want = outcome(normalize_reference.apply_strategy, ds, fold, strategy)
            if isinstance(want, str):
                assert got == want
                rejected += 1
                continue
            for g, w in zip(got, want, strict=True):
                # Bytes, not np.array_equal, which takes -0.0 for 0.0.
                assert (g.shape, g.dtype, g.tobytes()) == (w.shape, w.dtype, w.tobytes())
    # LOSO holds out subject 1's one-row domain once, which Z2 and Z3 reject;
    # HLSO holds out only last sessions, so every fold runs.
    assert rejected == (2 if protocol == "loso" else 0)


def test_zscore_idempotent_once_standardized():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(20, 5)) * 3 + 7
    once = zscore(X, compute_stats(X))
    twice = zscore(once, compute_stats(once))
    np.testing.assert_allclose(twice, once, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    X=arrays(np.float64, (6, 3), elements=st.floats(-100, 100)),
    a=st.floats(0.1, 50.0),
    b=st.floats(-100, 100),
)
def test_zscore_affine_equivariant(X, a, b):
    # Needs genuine spread in every column for stats to be meaningful.
    X = X + np.arange(6)[:, None] * 1.5
    Y = a * X + b
    zx = zscore(X, compute_stats(X))
    zy = zscore(Y, compute_stats(Y))
    np.testing.assert_allclose(zy, zx, atol=1e-9)


@pytest.mark.parametrize("strategy", list(NormStrategy), ids=lambda s: s.value)
def test_fold_indices_must_name_rows_of_the_dataset(strategy):
    # On 4 rows, index -1 would alias test row 3 and slip into training.
    with pytest.raises(ProtocolError, match="^fold 'x': indices must be non-negative$"):
        Fold([-1, 0], [3], "x")
    ds = DomainDataset(np.arange(8.0).reshape(4, 2), [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 0])
    for fold in (Fold([0, 1], [4], "x"), Fold([0, 9], [2, 3], "x")):
        with pytest.raises(ProtocolError, match="^fold 'x': indices must be below the dataset's 4 rows$"):
            apply_strategy(ds, fold, strategy)
