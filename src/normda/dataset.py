"""Domain-partitioned datasets, ingestion, synthetic generation, and splitters.

A domain is one (subject, session) pair. Rows carry a class label and a
domain key; every splitter and the generator are pure functions of their
inputs plus an explicit seed.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigError,
    EmptyInputError,
    ParseError,
    ProtocolError,
    SchemaError,
    ShapeError,
    StratificationError,
    bounded,
    check_field_types,
    check_type,
    integer_labels,
)

# Held-out share of the training rows, per class, for early stopping and
# grid search.
VAL_FRACTION = 0.1


class DomainKey(NamedTuple):
    """Identity of one domain: a recording session of one subject."""

    subject: int
    session: int


def _integers(values, what: str) -> np.ndarray:
    """errors.integer_labels(values), its error naming `what`."""
    try:
        return integer_labels(values)
    except ShapeError:
        raise ShapeError(f"{what} must be integers within int64") from None


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DomainDataset:
    """Feature matrix with per-row class label and domain key.

    features: (n, m) float matrix, labels/subjects/sessions: length-n int
    vectors. Immutable after construction; safe to share across threads.
    """

    features: np.ndarray
    labels: np.ndarray
    subjects: np.ndarray
    sessions: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        try:
            feats = np.asarray(self.features, dtype=np.float64)
        except (TypeError, ValueError):
            raise ConfigError("features must be an array of numbers") from None
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ConfigError("features must be a nonempty 2-D matrix")
        if not np.all(np.isfinite(feats)):
            raise ConfigError("features must be finite")
        labels, subjects, sessions = (_integers(getattr(self, k), k) for k in ("labels", "subjects", "sessions"))
        n = feats.shape[0]
        for name, arr in (("labels", labels), ("subjects", subjects), ("sessions", sessions)):
            if arr.shape != (n,):
                raise ConfigError(f"{name} must have length {n}, got shape {arr.shape}")
            if np.any(arr < 0):
                raise ConfigError(f"{name} must be non-negative")
        if self.feature_names is not None:
            names = tuple(self.feature_names)
            if len(names) != feats.shape[1]:
                raise ConfigError("feature_names length must equal feature count")
            object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "features", _frozen(feats))
        object.__setattr__(self, "labels", _frozen(labels))
        object.__setattr__(self, "subjects", _frozen(subjects))
        object.__setattr__(self, "sessions", _frozen(sessions))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]

    def domain_keys(self) -> list[DomainKey]:
        """Distinct domains, sorted by (subject, session)."""
        pairs = {(int(s), int(e)) for s, e in zip(self.subjects, self.sessions)}
        return [DomainKey(*p) for p in sorted(pairs)]

    def rows_of(self, key: DomainKey) -> np.ndarray:
        return np.flatnonzero((self.subjects == key.subject) & (self.sessions == key.session))


@dataclass(frozen=True)
class Fold:
    """One train/test partition of dataset row indices."""

    train_idx: np.ndarray
    test_idx: np.ndarray
    name: str

    def __post_init__(self):
        if any(np.asarray(i).dtype == bool for i in (self.train_idx, self.test_idx)):
            raise ProtocolError(f"fold {self.name!r}: indices must be row numbers, not a boolean mask")
        tr, te = (_integers(i, f"fold {self.name!r}: indices") for i in (self.train_idx, self.test_idx))
        if tr.size == 0 or te.size == 0:
            raise ProtocolError(f"fold {self.name!r}: train and test must both be nonempty")
        if min(tr.min(), te.min()) < 0:
            raise ProtocolError(f"fold {self.name!r}: indices must be non-negative")
        if np.unique(tr).size < tr.size or np.unique(te).size < te.size:
            raise ProtocolError(f"fold {self.name!r}: an index repeats")
        if np.intersect1d(tr, te).size > 0:
            raise ProtocolError(f"fold {self.name!r}: train and test overlap")
        object.__setattr__(self, "train_idx", _frozen(tr))
        object.__setattr__(self, "test_idx", _frozen(te))


@dataclass(frozen=True)
class SyntheticShiftConfig:
    """Controls for the shifted multi-domain Gaussian generator.

    Class means sit at the vertices of a scaled simplex (every pair at
    distance `class_separation`); each domain applies its own affine map
    x -> a_d * x + b_d with ||b_d|| = domain_shift_scale and per-feature
    factors a_d drawn from [1 - jitter, 1 + jitter]. Requires
    dim >= n_classes for the simplex placement.
    """

    n_subjects: int = bounded(2, low=1)
    n_sessions: int = bounded(1, low=1)
    n_classes: int = bounded(2, low=2)
    samples_per_class_per_domain: int = bounded(50, low=1)
    dim: int = 4
    class_separation: float = bounded(4.0, low=0, above=True)
    domain_shift_scale: float = bounded(0.0, low=0)
    domain_scale_jitter: float = bounded(0.0, low=0)
    noise_std: float = bounded(1.0, low=0, above=True)
    seed: int = bounded(0, low=0)

    def __post_init__(self):
        check_field_types(self)
        if self.dim < self.n_classes:
            raise ConfigError("dim must be >= n_classes for simplex class-mean placement")


def _simplex_means(n_classes: int, dim: int, separation: float) -> np.ndarray:
    # Scaled standard-basis vertices, centered; every pair at distance `separation`.
    means = np.zeros((n_classes, dim))
    scale = separation / math.sqrt(2.0)
    for c in range(n_classes):
        means[c, c] = scale
    return means - means.mean(axis=0, keepdims=True)


def generate_synthetic(cfg: SyntheticShiftConfig) -> DomainDataset:
    """Draw a multi-domain dataset with identical class structure per domain.

    Domain offsets b_d point along orthonormal directions (cycling with a
    sign flip once directions run out), so any two of the first `dim`
    domains sit sqrt(2) * domain_shift_scale apart before noise.
    """
    rng = np.random.default_rng(cfg.seed)
    means = _simplex_means(cfg.n_classes, cfg.dim, cfg.class_separation)
    # Orthonormal offset directions, fixed before any per-domain draws.
    q, _ = np.linalg.qr(rng.standard_normal((cfg.dim, cfg.dim)))

    feats, labels, subjects, sessions = [], [], [], []
    domain_index = 0
    for subject in range(cfg.n_subjects):
        for session in range(cfg.n_sessions):
            direction = q[:, domain_index % cfg.dim]
            sign = -1.0 if (domain_index // cfg.dim) % 2 else 1.0
            offset = cfg.domain_shift_scale * sign * direction
            scale = rng.uniform(
                1.0 - cfg.domain_scale_jitter, 1.0 + cfg.domain_scale_jitter, size=cfg.dim
            )
            for c in range(cfg.n_classes):
                x = means[c] + cfg.noise_std * rng.standard_normal(
                    (cfg.samples_per_class_per_domain, cfg.dim)
                )
                x = scale * x + offset
                feats.append(x)
                labels.append(np.full(cfg.samples_per_class_per_domain, c))
                subjects.append(np.full(cfg.samples_per_class_per_domain, subject))
                sessions.append(np.full(cfg.samples_per_class_per_domain, session))
            domain_index += 1

    return DomainDataset(
        np.vstack(feats),
        np.concatenate(labels),
        np.concatenate(subjects),
        np.concatenate(sessions),
        tuple(f"f{j}" for j in range(cfg.dim)),
    )


def read_text(path) -> str:
    """The text of the UTF-8 file at `path` without a leading byte-order
    mark; a byte that is not UTF-8 is a ParseError naming its offset."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        # Decoding the whole file (not utf-8-sig) keeps exc.start a byte
        # offset into the file itself, BOM included.
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start} is not valid UTF-8 ({exc.reason})") from None


def parse_numbers(cells: Sequence[str], kind=float) -> list | None:
    """[kind(cell) for cell in cells] (kind is int or float), or None if
    the number rule rejects a cell: it accepts what kind() accepts except
    digit-group underscores, non-ASCII characters ("1_5", "٣"), floats
    that are not finite and ints outside int64. A whole row costs one
    check and one map."""
    text = "".join(cells)
    if "_" in text or not text.isascii():
        return None
    try:
        numbers = list(map(kind, cells))
    except ValueError:
        return None
    if kind is int:
        return numbers if all(-(2**63) <= v < 2**63 for v in numbers) else None
    return numbers if all(map(math.isfinite, numbers)) else None


def load_csv(path) -> DomainDataset:
    """Read a dataset from CSV (decoded by read_text, each data cell read by
    parse_numbers): the subject, session and label columns are integer ids,
    every other column a feature.

    Raises SchemaError for missing columns or a column name that repeats
    after stripping whitespace, ParseError naming the offending row
    (1-based, header excluded) and column of a cell that is not a finite
    number (an int64 integer for the ids), or the first byte that is not UTF-8,
    EmptyInputError for a file without data rows.
    """
    schema = ("subject", "session", "label")
    with io.StringIO(read_text(path), newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInputError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        for j, name in enumerate(header):
            if name in header[:j]:
                raise SchemaError(f"{path}: column {name!r} appears more than once in the header")
        for col in schema:
            if col not in header:
                raise SchemaError(f"{path}: missing required column {col!r}")
        id_cols = [header.index(col) for col in schema]
        feature_cols = [j for j, name in enumerate(header) if name not in schema]
        if not feature_cols:
            raise SchemaError(f"{path}: no feature columns beyond {list(schema)}")
        take = operator.itemgetter(*id_cols, *feature_cols)  # a row's cells, ids first

        ids, feats = [], []
        for row_num, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise ParseError(f"{path}: row {row_num} has {len(row)} cells, expected {len(header)}")
            cells = take(row)
            row_ids, values = parse_numbers(cells[:3], int), parse_numbers(cells[3:])
            if row_ids is None:
                j = next(j for j in id_cols if parse_numbers([row[j]], int) is None)
                raise ParseError(
                    f"{path}: row {row_num}, column {header[j]}: {row[j]!r} is not an integer in the int64 range"
                )
            if values is None:
                j = next(j for j in feature_cols if parse_numbers([row[j]]) is None)
                raise ParseError(f"{path}: row {row_num}, column {header[j]}: {row[j]!r} is not a finite number")
            ids.append(row_ids)
            feats.append(values)

    if not feats:
        raise EmptyInputError(f"{path}: no data rows")
    subjects, sessions, labels = np.array(ids).T
    return DomainDataset(np.array(feats), labels, subjects, sessions, tuple(header[j] for j in feature_cols))


def save_csv(ds: DomainDataset, path) -> None:
    """Write a dataset in the ingestion format (header + one row per sample)."""
    names = ds.feature_names or tuple(f"f{j}" for j in range(ds.m))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject", "session", "label", *names])
        for i in range(ds.n):
            writer.writerow(
                [int(ds.subjects[i]), int(ds.sessions[i]), int(ds.labels[i])]
                + [repr(float(v)) for v in ds.features[i]]
            )


def loso_folds(ds: DomainDataset) -> list[Fold]:
    """Leave-one-subject-out folds, one per subject, ordered by subject id."""
    subject_ids = sorted({int(s) for s in ds.subjects})
    if len(subject_ids) < 2:
        raise ProtocolError("leave-one-subject-out needs at least 2 subjects")
    folds = []
    for s in subject_ids:
        test = np.flatnonzero(ds.subjects == s)
        train = np.flatnonzero(ds.subjects != s)
        folds.append(Fold(train, test, f"test-subject-{s}"))
    return folds


def hlso_folds(ds: DomainDataset) -> list[Fold]:
    """Hold-last-session-out folds: per subject, last session is the test set.

    Subject-dependent protocol, so each fold's train set holds only that
    subject's earlier sessions. Chronology is ascending session id.
    """
    folds = []
    for s in sorted({int(v) for v in ds.subjects}):
        rows = np.flatnonzero(ds.subjects == s)
        sess = ds.sessions[rows]
        distinct = sorted({int(v) for v in sess})
        if len(distinct) < 2:
            raise ProtocolError(f"subject {s} has a single session; hold-last-session-out needs >= 2")
        last = distinct[-1]
        folds.append(
            Fold(rows[sess != last], rows[sess == last], f"subject-{s}-holdout-session-{last}")
        )
    return folds


PROTOCOLS = ("loso", "hlso")


def folds_for(ds: DomainDataset, protocol: str) -> list[Fold]:
    """The folds of one of PROTOCOLS; rebinding a splitter's module global reaches every caller."""
    return loso_folds(ds) if protocol == "loso" else hlso_folds(ds)


def stratified_indices(labels: Sequence[int], seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Split the row indices of `labels` into (rest, held-out) preserving
    class proportions.

    Per class the held-out side gets ceil(VAL_FRACTION * count) rows, never
    fewer than one. Deterministic given the seed; both outputs are sorted.
    """
    labels = integer_labels(labels)
    if labels.size == 0:
        raise EmptyInputError("cannot split an empty index set")
    check_type(seed, "seed", "int", low=0)
    rng = np.random.default_rng(seed)
    val_parts = []
    for c in sorted({int(v) for v in labels}):
        rows = np.flatnonzero(labels == c)
        if rows.size < 2:
            raise StratificationError(f"class {c} has a single row; cannot stratify")
        n_val = max(1, math.ceil(VAL_FRACTION * rows.size))
        val_parts.append(rng.permutation(rows)[:n_val])
    val = np.sort(np.concatenate(val_parts))
    return np.setdiff1d(np.arange(labels.size), val), val


def accuracy(predicted, actual) -> float:
    """Fraction of exact label matches."""
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.shape != actual.shape:
        raise ShapeError("predicted and actual label vectors differ in length")
    if predicted.size == 0:
        raise EmptyInputError("cannot score empty label vectors")
    return float(np.mean(predicted == actual))
