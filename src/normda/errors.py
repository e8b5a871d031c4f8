"""Exception types shared across the package, and the input checks that
raise them in more than one module. NormdaError is the only expected
failure; any other exception is a bug and propagates.

Every fit and model input in svm, shallow and deep takes its feature rows
through feature_rows and its training labels through class_labels, so a
bad input fails with the same error type whichever method receives it.

Every scalar argument and dataclass field passes one rule, check_type: a
value of its type, finite if a number, and at least (or above) its lower
bound if it has one. A dataclass field declares its bound once, next to its
default (see bounded), and check_field_types applies it."""

import math
import numbers
from dataclasses import MISSING, field, fields

import numpy as np


class NormdaError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(NormdaError, ValueError):
    """A configuration value violates its constraints."""


class SchemaError(NormdaError, ValueError):
    """An input file is missing required columns or structure."""


class ParseError(NormdaError, ValueError):
    """A cell in an input file failed to parse; names row and column."""


class EmptyInputError(NormdaError, ValueError):
    """An operation received an empty matrix or file."""


class ShapeError(NormdaError, ValueError):
    """Array dimensions are inconsistent with the operation's contract."""


class ProtocolError(NormdaError, ValueError):
    """The dataset cannot support the requested evaluation protocol."""


class StratificationError(NormdaError, ValueError):
    """A class has too few rows for a stratified split."""


class DegenerateDomainError(NormdaError, ValueError):
    """A test-side domain is too small for per-domain statistics."""


class DegenerateDataError(NormdaError, ValueError):
    """Input data has no usable variance for the requested operation."""


class DegenerateLabelsError(NormdaError, ValueError):
    """Labels contain fewer than two classes."""


class NumericError(NormdaError, ArithmeticError):
    """A computation produced non-finite values."""


class ExperimentError(NormdaError, RuntimeError):
    """One or more experiment cells failed."""


_FIELD_TYPES = {
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a number"),
    "bool": (bool, "a boolean"),
    "str": (str, "a string"),
}


def bounded(default=MISSING, *, low, above=False):
    """A dataclass field that check_field_types requires to be >= `low`,
    or > `low` when `above`."""
    return field(default=default, metadata={"low": low, "above": above})


def check_field_types(obj) -> None:
    """Raise ConfigError unless each field of the dataclass `obj` annotated
    `int`, `float`, `bool` or `str`, or one of these `| None`, holds a
    value that check_type accepts (or None), within the field's bound."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        kind, _, rest = str(getattr(f.type, "__name__", f.type)).partition(" | ")
        if kind not in _FIELD_TYPES or (rest == "None" and value is None):
            continue
        check_type(value, f.name, kind, **f.metadata)


def check_type(value, name: str, kind, low=None, above=False) -> None:
    """Raise ConfigError naming `name` unless `value` is an instance of the
    class `kind`, or of the field type `kind` ("int", "float", "bool" or
    "str"): an integer is a number, but a bool is neither, and a number
    must be finite. Given `low`, the value must also be >= low, or > low
    when `above`."""
    if isinstance(kind, type):
        if not isinstance(value, kind):
            article = "an" if kind.__name__[0] in "AEIOU" else "a"
            raise ConfigError(f"{name} must be {article} {kind.__name__}, got {type(value).__name__}")
        return
    wanted, what = _FIELD_TYPES[kind]
    if not isinstance(value, wanted) or (isinstance(value, bool) and wanted is not bool):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    if kind == "float" and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if low is not None and (value <= low if above else value < low):
        raise ConfigError(f"{name} must be {'>' if above else '>='} {low}, got {value!r}")


def integer_labels(y) -> np.ndarray:
    """`y` as int64 class labels. Raises ShapeError for labels that the cast
    would truncate, garble or fail on: fractional, non-finite, non-numeric,
    or outside int64."""
    try:
        y = np.asarray(y)
        with np.errstate(invalid="ignore"):
            out = y.astype(np.int64, copy=False)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or not np.array_equal(out, y):
        raise ShapeError("labels must be integers within int64")
    return out


def feature_rows(X, what: str, width: int | None = None, nonempty: bool = False) -> np.ndarray:
    """`X` as float64 rows. Raises ShapeError for entries that are not
    numbers, an array that is not 2-D, zero columns, or a width other than
    `width`; EmptyInputError for zero rows when `nonempty`; NumericError
    for a non-finite entry. Each message names `what`."""
    try:
        X = np.asarray(X, dtype=np.float64)
    except (TypeError, ValueError):
        raise ShapeError(f"{what} must be an array of numbers") from None
    if X.ndim != 2:
        raise ShapeError(f"{what} must be rows, got shape {X.shape}")
    if X.shape[1] == 0:
        raise ShapeError(f"{what} must have at least one column, got shape {X.shape}")
    if width is not None and X.shape[1] != width:
        raise ShapeError(f"{what} must be rows of width {width}, got shape {X.shape}")
    if nonempty and X.shape[0] == 0:
        raise EmptyInputError(f"{what} must have at least one row, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise NumericError(f"{what} contain non-finite values")
    return X


def class_labels(y, n: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The sorted classes of the training labels `y` for `n` rows, and each
    label's index among them (int64). Raises ShapeError for labels that are
    not integers (see integer_labels) or not `n` of them, and
    DegenerateLabelsError for fewer than two classes."""
    y = integer_labels(y)
    if y.shape != (n,):
        raise ShapeError(f"{n} training rows but labels of shape {y.shape}")
    classes, index = np.unique(y, return_inverse=True)
    if classes.size < 2:
        raise DegenerateLabelsError("training labels contain a single class")
    return tuple(classes.tolist()), index
