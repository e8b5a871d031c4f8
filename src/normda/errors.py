"""Exception types shared across the package. NormdaError is the only
expected failure; any other exception is a bug and propagates."""

import numbers
from dataclasses import fields


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


def check_field_types(obj) -> None:
    """Raise ConfigError unless each field of the dataclass `obj` annotated
    `int`, `float`, `bool` or `str` holds a value of that type; an integer
    is a number, but a bool is neither."""
    for f in fields(obj):
        value, kind = getattr(obj, f.name), getattr(f.type, "__name__", f.type)
        if kind not in _FIELD_TYPES:
            continue
        wanted, what = _FIELD_TYPES[kind]
        if not isinstance(value, wanted) or (isinstance(value, bool) and wanted is not bool):
            raise ConfigError(f"{f.name} must be {what}, got {value!r}")
