"""JSON file reading and writing, typed readers of JSON values, and JSON
encoding of complex vectors and matrices as (re, im) pairs."""

from __future__ import annotations

import json
import reprlib
import sys

import numpy as np

from qpzk.errors import ConfigError, DimensionMismatchError, RegisterError, StateValidationError


def load_json(path, build, what: str):
    """build(data) for the parsed contents `data` of a JSON file. A missing,
    unreadable or malformed file raises ConfigError, and so does an object
    that fails its own validation: "invalid <what> file: ...". A qubit cap
    breach is a resource error and passes through."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"file not found or unreadable: {path} ({exc.strerror})") from exc
    except ValueError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return build(data)
    except (RegisterError, StateValidationError, DimensionMismatchError) as exc:
        raise ConfigError(f"invalid {what} file: {exc}") from exc


def write_json(data, path) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)


def read_at(path: str, value, read):
    """read(value); its ConfigError, TypeError or ValueError becomes a
    ConfigError with the field path in front: `params.traps: must be ...`."""
    try:
        return read(value)
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def read_field(data, name: str, read, default=None):
    """read(data[name]) for a field of a JSON object, or `default` when the
    field is absent and a default is given; a missing or unreadable field
    raises ConfigError naming the field."""
    read_object(data)
    if name not in data:
        if default is None:
            raise ConfigError(f"missing field '{name}'")
        return default
    return read_at(name, data[name], read)


def is_int(value) -> bool:
    """True for an integer that is not a bool (JSON true and false)."""
    return isinstance(value, int) and not isinstance(value, bool)


# Shows a wrong value in a message, a whole file's worth of JSON as a few entries.
_shown = reprlib.Repr()
_shown.maxlevel = 2


def _reader(accepts, what: str, cast):
    def read(value):
        if not accepts(value):
            raise ConfigError(f"must be {what}, got {_shown.repr(value)}")
        return cast(value)
    return read


# read_field readers of JSON values: a bool is no number, a float or a
# string is no integer, and NaN or an infinity is no float.
read_int = _reader(is_int, "an integer", int)
read_float = _reader(lambda v: (is_int(v) or isinstance(v, float))
                     and abs(v) <= sys.float_info.max, "a finite number", float)
read_str = _reader(lambda v: isinstance(v, str), "a string", str)
read_object = _reader(lambda v: isinstance(v, dict), "a JSON object", dict)
read_list = _reader(lambda v: isinstance(v, list), "a JSON array", list)


def complex_vector_to_json(vec: np.ndarray) -> list:
    return [[float(a.real), float(a.imag)] for a in np.asarray(vec).reshape(-1)]


def complex_vector_from_json(data) -> np.ndarray:
    try:
        return np.array([complex(re, im) for re, im in data], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed complex vector: {exc}") from exc


def complex_matrix_to_json(mat: np.ndarray) -> list:
    return [complex_vector_to_json(row) for row in np.asarray(mat)]


def complex_matrix_from_json(data) -> np.ndarray:
    try:
        rows = [complex_vector_from_json(row) for row in data]
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed complex matrix: {exc}") from exc
    mat = np.array(rows, dtype=complex)
    if mat.ndim != 2:
        raise ConfigError("complex matrix must be two-dimensional")
    return mat
