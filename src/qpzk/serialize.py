"""JSON file reading, and JSON encoding of complex vectors and matrices as
(re, im) pairs."""

from __future__ import annotations

import json
import sys

import numpy as np

from qpzk.errors import ConfigError


def read_json(path):
    """Parsed contents of a JSON file; a missing, unreadable or malformed
    file raises ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"file not found or unreadable: {path} ({exc.strerror})") from exc
    except ValueError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def read_field(data, name: str, read, default=None):
    """read(data[name]) for a field of a JSON object read from a file, or
    `default` when the field is absent and a default is given; a missing or
    unreadable field raises ConfigError naming the field."""
    if not isinstance(data, dict):
        raise ConfigError("file: expected a JSON object")
    if name not in data:
        if default is None:
            raise ConfigError(f"file missing field '{name}'")
        return default
    try:
        return read(data[name])
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def is_int(value) -> bool:
    """True for an integer that is not a bool (JSON true and false)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _reader(accepts, what: str, cast):
    def read(value):
        if not accepts(value):
            raise ConfigError(f"must be {what}, got {value!r}")
        return cast(value)
    return read


# read_field readers of JSON values: a bool is no number, a float or a
# string is no integer, and NaN or an infinity is no float.
read_int = _reader(is_int, "an integer", int)
read_float = _reader(lambda v: (is_int(v) or isinstance(v, float))
                     and abs(v) <= sys.float_info.max, "a finite number", float)
read_str = _reader(lambda v: isinstance(v, str), "a string", str)
read_object = _reader(lambda v: isinstance(v, dict), "a JSON object", dict)


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
