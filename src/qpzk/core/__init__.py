"""Exact dense simulation of multi-qubit registers: states, unitaries,
measurements, distances, sampling and the SWAP-test primitive.

Importing the package loads no submodule: each name below loads its
submodule on first access (`from qpzk.core import PureState` loads
`qpzk.core.states` and what it imports)."""

import importlib

_NAMES = {
    "linalg": ("EPS",),
    "metrics": ("fidelity", "gentle_post_state", "trace_distance"),
    "operators": ("Povm", "ProjectiveMeasurement", "UnitaryOp"),
    "registers": ("RegisterLayout", "qubit_cap"),
    "sampling": ("random_unitary", "rng_from"),
    "states": ("MeasurementOutcome", "MixedState", "PureState", "apply_unitary", "measure",
               "partial_trace", "random_density", "random_pure_state", "tensor"),
    "swap_test": ("swap_test_povm",),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
