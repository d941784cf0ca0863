"""Pure and mixed states over named register layouts, and the operations
that move them: tensor, partial trace, unitary application, measurement."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from qpzk.core import linalg
from qpzk.core.linalg import EPS
from qpzk.core.operators import ProjectiveMeasurement, UnitaryOp
from qpzk.core.registers import RegisterLayout
from qpzk.core.sampling import random_amplitudes
from qpzk.errors import DimensionMismatchError, StateValidationError


@dataclass(frozen=True)
class PureState:
    """Unit-norm amplitude vector over a register layout."""

    amplitudes: np.ndarray
    layout: RegisterLayout

    def __post_init__(self):
        amp = _layout_array(np.reshape(self.amplitudes, -1), (self.layout.dim,))
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > EPS:
            raise StateValidationError(f"state norm {norm} is not 1 within 1e-9")
        _freeze(self, "amplitudes", amp)

    @classmethod
    def computed(cls, amplitudes, layout: RegisterLayout) -> "PureState":
        """A state the package computed from checked inputs: converted and
        shape-checked as by the constructor, without its norm check."""
        amp = _layout_array(np.reshape(amplitudes, -1), (layout.dim,))
        return _unchecked(cls, "amplitudes", amp, layout)

    @property
    def n_qubits(self) -> int:
        return self.layout.total_qubits

    @property
    def dim(self) -> int:
        return self.layout.dim

    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def to_mixed(self) -> "MixedState":
        return MixedState.computed(self.density(), self.layout)

    def overlap(self, other: "PureState") -> complex:
        if self.dim != other.dim:
            raise DimensionMismatchError("overlap of states with different dims")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def relabel(self, layout: RegisterLayout) -> "PureState":
        """Same amplitudes under a different layout of equal total size."""
        return PureState.computed(self.amplitudes, layout)

    @classmethod
    def computational(cls, layout: RegisterLayout, index: int = 0) -> "PureState":
        return cls(linalg.basis_vector(index, layout.dim), layout)

    @classmethod
    def from_bits(cls, layout: RegisterLayout, bits: str) -> "PureState":
        if len(bits) != layout.total_qubits:
            raise DimensionMismatchError("bit string length != qubit count")
        return cls.computational(layout, int(bits, 2))


@dataclass(frozen=True)
class MixedState:
    """Density matrix over a register layout."""

    matrix: np.ndarray
    layout: RegisterLayout

    def __post_init__(self):
        mat = _layout_array(self.matrix, (self.layout.dim,) * 2)
        if not linalg.is_hermitian(mat):
            raise StateValidationError("density matrix is not Hermitian within 1e-9")
        if np.linalg.eigvalsh((mat + mat.conj().T) / 2).min() < -EPS:
            raise StateValidationError("density matrix is not PSD within 1e-9")
        tr = float(mat.trace().real)
        if abs(tr - 1.0) > EPS:
            raise StateValidationError(f"trace {tr} is not 1 within 1e-9")
        _freeze(self, "matrix", mat)

    @classmethod
    def computed(cls, matrix, layout: RegisterLayout) -> "MixedState":
        """A state the package computed from checked inputs: converted and
        shape-checked as by the constructor, without its Hermitian, PSD and
        trace checks."""
        return _unchecked(cls, "matrix", _layout_array(matrix, (layout.dim,) * 2), layout)

    @property
    def n_qubits(self) -> int:
        return self.layout.total_qubits

    @property
    def dim(self) -> int:
        return self.layout.dim

    def density(self) -> np.ndarray:
        return self.matrix

    def to_mixed(self) -> "MixedState":
        return self

    def trace(self) -> float:
        return float(self.matrix.trace().real)

    def relabel(self, layout: RegisterLayout) -> "MixedState":
        return MixedState.computed(self.matrix, layout)

    @classmethod
    def maximally_mixed(cls, layout: RegisterLayout) -> "MixedState":
        dim = layout.dim
        return cls(np.eye(dim, dtype=complex) / dim, layout)


QuantumState = Union[PureState, MixedState]


def random_pure_state(layout: RegisterLayout, rng: np.random.Generator) -> PureState:
    """Haar-random pure state: normalized complex Gaussian vector."""
    return PureState(random_amplitudes(layout.dim, rng), layout)


def random_density(layout: RegisterLayout, rng: np.random.Generator, rank: int | None = None) -> MixedState:
    """Random full- or fixed-rank density matrix (partial trace of a Haar state)."""
    dim = layout.dim
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return MixedState.computed(m / m.trace(), layout)


def _layout_array(arr, shape: tuple) -> np.ndarray:
    out = np.asarray(arr, dtype=complex)
    if out.shape != shape:
        raise DimensionMismatchError(f"state shape {out.shape} != layout shape {shape}")
    return out


def _freeze(state, field: str, arr: np.ndarray) -> None:
    """Store arr, read-only, as the frozen state's field."""
    arr.setflags(write=False)
    object.__setattr__(state, field, arr)


def _unchecked(cls, field: str, arr: np.ndarray, layout: RegisterLayout):
    state = object.__new__(cls)
    object.__setattr__(state, "layout", layout)
    _freeze(state, field, arr)
    return state


def tensor(a: QuantumState, b: QuantumState) -> QuantumState:
    """Joint state on the concatenated layout; pure inputs stay pure."""
    layout = a.layout.concat(b.layout)
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState.computed(np.kron(a.amplitudes, b.amplitudes), layout)
    return MixedState.computed(np.kron(a.density(), b.density()), layout)


def partial_trace(state: QuantumState, drop) -> MixedState:
    """Reduced density matrix after tracing out the named registers."""
    drop = [drop] if isinstance(drop, str) else list(drop)
    remaining = state.layout.drop(drop)
    keep = state.layout.qubits_of_all(remaining.names)
    if isinstance(state, PureState):
        red = linalg.partial_trace_vector(state.amplitudes, keep, state.n_qubits)
        return MixedState.computed(red, remaining)
    red = linalg.partial_trace_matrix(state.matrix, keep, state.n_qubits)
    return MixedState.computed(red, remaining)


def apply_unitary(state: QuantumState, u: UnitaryOp) -> QuantumState:
    """Apply a unitary on its declared registers, identity elsewhere."""
    targets = state.layout.qubits_of_all(u.acts_on)
    if isinstance(state, PureState):
        out = linalg.apply_to_vector(u.matrix, state.amplitudes, targets, state.n_qubits)
        return PureState.computed(out, state.layout)
    out = linalg.apply_to_matrix(u.matrix, state.matrix, targets, state.n_qubits)
    return MixedState.computed(out, state.layout)


@dataclass(frozen=True)
class MeasurementOutcome:
    """One branch of a projective measurement.

    Zero-probability branches carry no post-state (post is None) instead of a
    renormalized zero matrix.
    """

    index: int
    probability: float
    post: Optional[QuantumState]


def measure(
    state: QuantumState,
    measurement: ProjectiveMeasurement,
    acts_on=None,
) -> list[MeasurementOutcome]:
    """All outcomes of a projective measurement with renormalized post-states.

    `acts_on` names the measured registers; None measures the whole state.
    """
    acts = tuple(acts_on) if acts_on is not None else state.layout.names
    targets = state.layout.qubits_of_all(acts)
    if measurement.dim != 2 ** len(targets):
        raise DimensionMismatchError(
            f"measurement dim {measurement.dim} != register dim {2 ** len(targets)}"
        )
    outcomes: list[MeasurementOutcome] = []
    for j, proj in enumerate(measurement.projectors):
        if isinstance(state, PureState):
            branch = linalg.apply_to_vector(proj, state.amplitudes, targets, state.n_qubits)
            p = float(np.linalg.norm(branch) ** 2)
            if p <= EPS:
                outcomes.append(MeasurementOutcome(j, p, None))
            else:
                outcomes.append(MeasurementOutcome(
                    j, p, PureState.computed(branch / np.sqrt(p), state.layout)))
        else:
            branch = linalg.apply_to_matrix(proj, state.matrix, targets, state.n_qubits)
            p = float(branch.trace().real)
            if p <= EPS:
                outcomes.append(MeasurementOutcome(j, p, None))
            else:
                outcomes.append(
                    MeasurementOutcome(j, p, MixedState.computed(branch / p, state.layout)))
    return outcomes
