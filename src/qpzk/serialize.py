"""JSON file reading, and JSON encoding of complex vectors and matrices as
(re, im) pairs."""

from __future__ import annotations

import json

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
