"""Pure and mixed states over named register layouts, and the operations
that move them: tensor, partial trace, unitary application, measurement."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from qpzk.core import linalg
from qpzk.core.linalg import EPS
from qpzk.core.operators import ProjectiveMeasurement, UnitaryOp
from qpzk.core.registers import RegisterLayout
from qpzk.errors import DimensionMismatchError, StateValidationError


@dataclass(frozen=True)
class PureState:
    """Unit-norm amplitude vector over a register layout."""

    amplitudes: np.ndarray
    layout: RegisterLayout

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", amp)
        if amp.shape[0] != self.layout.dim:
            raise DimensionMismatchError(
                f"amplitude length {amp.shape[0]} != layout dim {self.layout.dim}"
            )
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > EPS:
            raise StateValidationError(f"state norm {norm} is not 1 within 1e-9")
        amp.setflags(write=False)

    @property
    def n_qubits(self) -> int:
        return self.layout.total_qubits

    @property
    def dim(self) -> int:
        return self.layout.dim

    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def to_mixed(self) -> "MixedState":
        return MixedState(self.density(), self.layout)

    def overlap(self, other: "PureState") -> complex:
        if self.dim != other.dim:
            raise DimensionMismatchError("overlap of states with different dims")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def relabel(self, layout: RegisterLayout) -> "PureState":
        """Same amplitudes under a different layout of equal total size."""
        return PureState(self.amplitudes, layout)

    def debug_json(self) -> str:
        """Amplitudes as JSON [(re, im), ...] in row-major order."""
        pairs = [[float(a.real), float(a.imag)] for a in self.amplitudes]
        return json.dumps(pairs)

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
    """Density matrix over a register layout.

    Sub-normalized matrices (trace < 1) are only produced inside
    post-selection paths and carry the `subnormalized` flag.
    """

    matrix: np.ndarray
    layout: RegisterLayout
    subnormalized: bool = False

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        if mat.shape != (self.layout.dim, self.layout.dim):
            raise DimensionMismatchError(
                f"matrix shape {mat.shape} != layout dim {self.layout.dim}"
            )
        if not linalg.is_hermitian(mat):
            raise StateValidationError("density matrix is not Hermitian within 1e-9")
        if np.linalg.eigvalsh((mat + mat.conj().T) / 2).min() < -EPS:
            raise StateValidationError("density matrix is not PSD within 1e-9")
        tr = float(mat.trace().real)
        if not self.subnormalized and abs(tr - 1.0) > EPS:
            raise StateValidationError(f"trace {tr} is not 1 within 1e-9")
        if self.subnormalized and tr > 1.0 + EPS:
            raise StateValidationError(f"sub-normalized trace {tr} exceeds 1")
        mat.setflags(write=False)

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

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def relabel(self, layout: RegisterLayout) -> "MixedState":
        return MixedState(self.matrix, layout, self.subnormalized)

    def debug_json(self) -> str:
        """Matrix entries as JSON [(re, im), ...] in row-major order."""
        flat = self.matrix.reshape(-1)
        pairs = [[float(a.real), float(a.imag)] for a in flat]
        return json.dumps(pairs)

    @classmethod
    def maximally_mixed(cls, layout: RegisterLayout) -> "MixedState":
        dim = layout.dim
        return cls(np.eye(dim, dtype=complex) / dim, layout)


QuantumState = Union[PureState, MixedState]


def tensor(a: QuantumState, b: QuantumState) -> QuantumState:
    """Joint state on the concatenated layout; pure inputs stay pure."""
    layout = a.layout.concat(b.layout)
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(np.kron(a.amplitudes, b.amplitudes), layout)
    sub = getattr(a, "subnormalized", False) or getattr(b, "subnormalized", False)
    return MixedState(np.kron(a.density(), b.density()), layout, sub)


def partial_trace(state: QuantumState, drop) -> MixedState:
    """Reduced density matrix after tracing out the named registers."""
    drop = [drop] if isinstance(drop, str) else list(drop)
    remaining = state.layout.drop(drop)
    keep = state.layout.qubits_of_all(remaining.names)
    if isinstance(state, PureState):
        red = linalg.partial_trace_vector(state.amplitudes, keep, state.n_qubits)
        return MixedState(red, remaining)
    red = linalg.partial_trace_matrix(state.matrix, keep, state.n_qubits)
    return MixedState(red, remaining, state.subnormalized)


def apply_unitary(state: QuantumState, u: UnitaryOp) -> QuantumState:
    """Apply a unitary on its declared registers, identity elsewhere."""
    targets = state.layout.qubits_of_all(u.acts_on)
    if isinstance(state, PureState):
        out = linalg.apply_to_vector(u.matrix, state.amplitudes, targets, state.n_qubits)
        return PureState(out, state.layout)
    out = linalg.apply_to_matrix(u.matrix, state.matrix, targets, state.n_qubits)
    return MixedState(out, state.layout, state.subnormalized)


def apply_matrix(state: QuantumState, mat: np.ndarray, acts_on) -> np.ndarray:
    """Raw A.state (vector) or A.state.A^dagger (matrix) for a possibly
    non-unitary operator on named registers; returns a bare ndarray."""
    targets = state.layout.qubits_of_all(acts_on)
    if isinstance(state, PureState):
        return linalg.apply_to_vector(mat, state.amplitudes, targets, state.n_qubits)
    return linalg.apply_to_matrix(mat, state.matrix, targets, state.n_qubits)


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
                outcomes.append(
                    MeasurementOutcome(j, p, PureState(branch / np.sqrt(p), state.layout))
                )
        else:
            branch = linalg.apply_to_matrix(proj, state.matrix, targets, state.n_qubits)
            p = float(branch.trace().real)
            if p <= EPS:
                outcomes.append(MeasurementOutcome(j, p, None))
            else:
                outcomes.append(
                    MeasurementOutcome(j, p, MixedState(branch / p, state.layout))
                )
    total = sum(o.probability for o in outcomes)
    if abs(total - (state.trace() if isinstance(state, MixedState) else 1.0)) > 1e-7:
        raise StateValidationError(f"outcome probabilities sum to {total}")
    return outcomes


def expectation(state: QuantumState, op: np.ndarray, acts_on=None) -> float:
    """Real expectation value Tr(op . rho) of a Hermitian operator."""
    acts = tuple(acts_on) if acts_on is not None else state.layout.names
    if isinstance(state, PureState):
        out = apply_matrix(state, op, acts)
        return float(np.vdot(state.amplitudes, out).real)
    targets = state.layout.qubits_of_all(acts)
    full = linalg.embed(op, targets, state.n_qubits)
    return float(np.trace(full @ state.matrix).real)
