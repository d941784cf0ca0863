"""Exact dense simulation of multi-qubit registers: states, unitaries,
measurements, distances, sampling and the SWAP-test primitive."""

from qpzk.core.linalg import EPS
from qpzk.core.metrics import fidelity, gentle_post_state, trace_distance
from qpzk.core.operators import Povm, ProjectiveMeasurement, UnitaryOp
from qpzk.core.registers import RegisterLayout, qubit_cap
from qpzk.core.sampling import (
    random_density,
    random_pure_state,
    random_unitary,
    rng_from,
)
from qpzk.core.states import (
    MeasurementOutcome,
    MixedState,
    PureState,
    apply_unitary,
    measure,
    partial_trace,
    tensor,
)
from qpzk.core.swap_test import swap_test_povm

__all__ = [
    "EPS",
    "MeasurementOutcome",
    "MixedState",
    "Povm",
    "ProjectiveMeasurement",
    "PureState",
    "RegisterLayout",
    "UnitaryOp",
    "apply_unitary",
    "fidelity",
    "gentle_post_state",
    "measure",
    "partial_trace",
    "qubit_cap",
    "random_density",
    "random_pure_state",
    "random_unitary",
    "rng_from",
    "swap_test_povm",
    "tensor",
    "trace_distance",
]
