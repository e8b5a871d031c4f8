import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normda.dataset import (
    DomainDataset,
    DomainKey,
    Fold,
    SyntheticShiftConfig,
    deap_valence_labels,
    generate_synthetic,
    hlso_folds,
    load_csv,
    loso_folds,
    save_csv,
    stratified_indices,
)
from normda.errors import (
    ConfigError,
    EmptyInputError,
    ParseError,
    ProtocolError,
    SchemaError,
    StratificationError,
)
from normda.shallow import KernelSpec, mmd_sq


def make_ds(subjects, sessions, labels, features=None):
    subjects = np.asarray(subjects)
    if features is None:
        rng = np.random.default_rng(0)
        features = rng.normal(size=(len(subjects), 3))
    return DomainDataset(np.asarray(features, dtype=float), np.asarray(labels), subjects, np.asarray(sessions))


# ---------------------------------------------------------------------------
# CSV ingestion


def test_load_csv_basic(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text(
        "subject,session,label,f1,f2\n"
        "0,0,0,1.0,2.0\n0,0,1,3.0,4.0\n1,0,0,5.0,6.0\n1,0,1,7.0,8.0\n"
    )
    ds = load_csv(p)
    assert ds.n == 4 and ds.m == 2
    assert ds.feature_names == ("f1", "f2")
    assert ds.domain_keys() == [DomainKey(0, 0), DomainKey(1, 0)]


def test_load_csv_skips_byte_order_mark(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes(b'\xef\xbb\xbfsubject,session,label,"f\r1",f2\r\n0,0,0,1.0,2.0\r\n0,0,1,3.0,4.0\r\n')
    ds = load_csv(p)
    assert ds.feature_names == ("f\r1", "f2")
    np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_byte_offset_counts_the_byte_order_mark(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes(b"\xef\xbb\xbfsu\xffbject,session,label,f1\n")  # 0xff is the file's byte 5
    with pytest.raises(ParseError, match=r"byte 5 is not valid UTF-8"):
        load_csv(p)


def test_load_csv_missing_label_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("subject,session,f1\n0,0,1.0\n")
    with pytest.raises(SchemaError):
        load_csv(p)


@pytest.mark.parametrize(
    "header, named",
    [
        ("subject,session,label,f0,label", "label"),
        ("subject,session,label,f0, subject", "subject"),
        ("subject,session,label,f0,f0", "f0"),
    ],
)
def test_load_csv_rejects_repeated_column(tmp_path, header, named):
    p = tmp_path / "d.csv"
    p.write_text(f"{header}\n0,0,0,1.0,1\n1,0,1,2.0,0\n")
    with pytest.raises(SchemaError, match=rf"column '{named}' appears more than once"):
        load_csv(p)


def test_load_csv_parse_error_names_row_and_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("subject,session,label,f1\n0,0,0,1.0\n0,0,0,2.0\n0,0,0,abc\n")
    with pytest.raises(ParseError, match=r"row 3.*f1"):
        load_csv(p)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400", "1_5", "٣"])
def test_load_csv_rejects_non_finite_and_names_row_and_column(tmp_path, cell):
    p = tmp_path / "d.csv"
    p.write_text(f"subject,session,label,f1,f2\n0,0,0,1.0,2.0\n0,0,1,3.0,{cell}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=rf"row 2, column f2: {cell!r} is not a finite number"):
        load_csv(p)


@pytest.mark.parametrize("column, cell", [("subject", "1_0"), ("label", "٣"), ("subject", "99999999999999999999999")])
def test_load_csv_rejects_an_id_that_is_not_a_plain_integer(tmp_path, column, cell):
    p = tmp_path / "d.csv"
    ids = {"subject": "1", "session": "0", "label": "1", column: cell}
    p.write_text("subject,session,label,f1\n0,0,0,1.0\n" + ",".join(ids.values()) + ",2.0\n", encoding="utf-8")
    with pytest.raises(ParseError, match=rf"row 2, column {column}: {cell!r} is not an integer"):
        load_csv(p)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_dataset_rejects_non_finite_features(value):
    feats = np.array([[0.0, 1.0], [2.0, value]])
    with pytest.raises(ConfigError, match="features must be finite"):
        DomainDataset(feats, [0, 1], [0, 0], [0, 0])


def test_load_csv_empty_file(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("")
    with pytest.raises(EmptyInputError):
        load_csv(p)
    p.write_text("subject,session,label,f1\n")
    with pytest.raises(EmptyInputError):
        load_csv(p)


def test_save_load_roundtrip(tmp_path):
    ds = generate_synthetic(SyntheticShiftConfig(n_subjects=2, n_classes=2, seed=1))
    p = tmp_path / "d.csv"
    save_csv(ds, p)
    back = load_csv(p)
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.subjects, ds.subjects)


def test_deap_valence_labels():
    out = deap_valence_labels([8.0, 5.0, 2.0, 7.5, 3.5])
    np.testing.assert_array_equal(out, [2, 1, 0, 2, 1])
    with pytest.raises(ValueError):
        deap_valence_labels([7.0])  # boundary left unassigned
    with pytest.raises(ValueError):
        deap_valence_labels([3.0])
    with pytest.raises(ValueError):
        deap_valence_labels([9.5])


# ---------------------------------------------------------------------------
# Synthetic generator


def test_synthetic_no_shift_domains_indistinguishable():
    k = KernelSpec("linear")
    small = generate_synthetic(
        SyntheticShiftConfig(n_subjects=2, samples_per_class_per_domain=20, seed=4)
    )
    big = generate_synthetic(
        SyntheticShiftConfig(n_subjects=2, samples_per_class_per_domain=400, seed=4)
    )

    def between(ds):
        a = ds.features[ds.subjects == 0]
        b = ds.features[ds.subjects == 1]
        return mmd_sq(a, b, k)

    assert between(big) < 0.2
    assert between(big) < between(small)


def test_synthetic_mean_distance_tracks_shift_scale():
    # Orthonormal domain offsets: two domains sit shift * sqrt(2) apart.
    cfg = SyntheticShiftConfig(
        n_subjects=2, n_sessions=1, n_classes=2, samples_per_class_per_domain=50,
        dim=8, domain_shift_scale=10.0, domain_scale_jitter=0.0, noise_std=1.0, seed=3,
    )
    ds = generate_synthetic(cfg)
    mean_a = ds.features[ds.subjects == 0].mean(axis=0)
    mean_b = ds.features[ds.subjects == 1].mean(axis=0)
    assert abs(np.linalg.norm(mean_a - mean_b) - 10.0 * math.sqrt(2)) < 1.0


def test_synthetic_deterministic():
    cfg = SyntheticShiftConfig(n_subjects=3, n_sessions=2, domain_shift_scale=5.0, seed=9)
    a, b = generate_synthetic(cfg), generate_synthetic(cfg)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_synthetic_no_shift_class_means_agree_across_domains():
    cfg = SyntheticShiftConfig(
        n_subjects=2, n_classes=2, samples_per_class_per_domain=400, dim=4, seed=2
    )
    ds = generate_synthetic(cfg)
    se = cfg.noise_std / math.sqrt(400)  # standard error per coordinate
    for c in range(2):
        m0 = ds.features[(ds.subjects == 0) & (ds.labels == c)].mean(axis=0)
        m1 = ds.features[(ds.subjects == 1) & (ds.labels == c)].mean(axis=0)
        assert np.all(np.abs(m0 - m1) < 3 * se * 2)


def test_synthetic_config_validation():
    with pytest.raises(ConfigError):
        SyntheticShiftConfig(noise_std=-1.0)
    with pytest.raises(ConfigError):
        SyntheticShiftConfig(n_classes=0)
    with pytest.raises(ConfigError):
        SyntheticShiftConfig(n_classes=5, dim=3)
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        SyntheticShiftConfig(seed=-1)


@pytest.mark.parametrize(
    "field, value", [("n_subjects", 2.5), ("dim", "4"), ("seed", True), ("noise_std", "x")]
)
def test_synthetic_config_rejects_wrong_typed_numbers(field, value):
    with pytest.raises(ConfigError, match=field):
        SyntheticShiftConfig(**{field: value})


# ---------------------------------------------------------------------------
# Splitters


def test_loso_basic():
    ds = make_ds([0] * 10 + [1] * 10 + [2] * 10, [0] * 30, [0, 1] * 15)
    folds = loso_folds(ds)
    assert len(folds) == 3
    for f in folds:
        assert f.test_idx.size == 10 and f.train_idx.size == 20


def test_loso_single_subject_rejected():
    ds = make_ds([0] * 4, [0] * 4, [0, 1, 0, 1])
    with pytest.raises(ProtocolError):
        loso_folds(ds)


def test_loso_fold_order_ascending_subject():
    ds = make_ds([5, 5, 2, 2], [0] * 4, [0, 1, 0, 1])
    folds = loso_folds(ds)
    assert [f.name for f in folds] == ["test-subject-2", "test-subject-5"]


def test_loso_test_sets_partition_rows():
    ds = generate_synthetic(SyntheticShiftConfig(n_subjects=4, n_sessions=2, seed=0))
    folds = loso_folds(ds)
    seen = np.concatenate([f.test_idx for f in folds])
    assert np.array_equal(np.sort(seen), np.arange(ds.n))
    for f in folds:
        assert np.intersect1d(f.train_idx, f.test_idx).size == 0


def test_hlso_last_session_held_out():
    ds = make_ds([1] * 6, [1, 1, 2, 2, 3, 3], [0, 1] * 3)
    with pytest.raises(ProtocolError):
        loso_folds(ds)  # single subject: LOSO impossible, HLSO fine
    folds = hlso_folds(ds)
    assert len(folds) == 1
    np.testing.assert_array_equal(folds[0].test_idx, [4, 5])
    np.testing.assert_array_equal(folds[0].train_idx, [0, 1, 2, 3])


def test_hlso_single_session_rejected():
    ds = make_ds([1, 1, 2, 2], [0, 1, 0, 0], [0, 1, 0, 1])
    with pytest.raises(ProtocolError):
        hlso_folds(ds)


def test_hlso_folds_confined_to_one_subject():
    ds = make_ds([0, 0, 0, 0, 1, 1, 1, 1], [0, 0, 1, 1, 0, 0, 1, 1], [0, 1] * 4)
    folds = hlso_folds(ds)
    assert len(folds) == 2
    for f, subject in zip(folds, [0, 1]):
        rows = np.concatenate([f.train_idx, f.test_idx])
        assert set(ds.subjects[rows]) == {subject}


def test_fold_rejects_overlap():
    with pytest.raises(ProtocolError):
        Fold(np.array([0, 1]), np.array([1, 2]), "bad")


# ---------------------------------------------------------------------------
# Stratified split


def test_stratified_split_even_classes():
    ds = make_ds([0] * 100, [0] * 100, [0] * 50 + [1] * 50)
    train, val = stratified_indices(ds.labels, seed=0)
    assert val.size == 10
    assert np.sum(ds.labels[val] == 0) == 5 and np.sum(ds.labels[val] == 1) == 5
    assert np.array_equal(np.sort(np.concatenate([train, val])), np.arange(100))


def test_stratified_split_skewed_classes():
    ds = make_ds([0] * 100, [0] * 100, [0] * 90 + [1] * 10)
    _, val = stratified_indices(ds.labels, seed=0)
    assert np.sum(ds.labels[val] == 0) == 9 and np.sum(ds.labels[val] == 1) == 1


def test_stratified_split_deterministic():
    ds = make_ds([0] * 40, [0] * 40, [0, 1] * 20)
    a = stratified_indices(ds.labels, seed=7)
    b = stratified_indices(ds.labels, seed=7)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_stratified_split_single_row_class_rejected():
    ds = make_ds([0] * 5, [0] * 5, [0, 0, 0, 0, 1])
    with pytest.raises(StratificationError):
        stratified_indices(ds.labels, seed=0)


# ---------------------------------------------------------------------------
# Properties


@settings(max_examples=30, deadline=None)
@given(
    n_subjects=st.integers(2, 5),
    n_sessions=st.integers(1, 3),
    per=st.integers(2, 6),
    seed=st.integers(0, 1000),
)
def test_loso_invariants_property(n_subjects, n_sessions, per, seed):
    ds = generate_synthetic(
        SyntheticShiftConfig(
            n_subjects=n_subjects, n_sessions=n_sessions,
            samples_per_class_per_domain=per, seed=seed,
        )
    )
    folds = loso_folds(ds)
    assert len(folds) == n_subjects
    covered = np.concatenate([f.test_idx for f in folds])
    assert np.array_equal(np.sort(covered), np.arange(ds.n))
    for f in folds:
        assert np.intersect1d(f.train_idx, f.test_idx).size == 0
        assert f.train_idx.min() >= 0 and f.train_idx.max() < ds.n


def test_dataset_immutable():
    ds = make_ds([0, 1], [0, 0], [0, 1])
    with pytest.raises(ValueError):
        ds.features[0, 0] = 99.0
