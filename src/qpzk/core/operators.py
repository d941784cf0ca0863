"""Unitaries, projective measurements and POVMs over named registers."""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from qpzk.core.linalg import EPS, close, is_hermitian, is_projector, is_unitary
from qpzk.errors import DimensionMismatchError, StateValidationError

# Standard gates.
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
SWAP2 = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
# CNOT with the second wire controlling the first.
CNOT_REVERSED = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)
# Computational-basis projectors |0><0| and |1><1|; |1><1| on the first
# workspace qubit is every protocol's accept readout.
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def swap_registers(qubits: int) -> np.ndarray:
    """SWAP of two equally sized blocks of `qubits` qubits each."""
    dim = 2 ** qubits
    # Row b * dim + a of the result is identity row a * dim + b: |a, b> -> |b, a>.
    rows = np.arange(dim * dim).reshape(dim, dim).T.reshape(-1)
    return np.eye(dim * dim, dtype=complex)[rows]


def controlled(op: np.ndarray, control_qubits: int = 1) -> np.ndarray:
    """Controlled version of op; controls occupy the leading qubits."""
    cdim = 2 ** control_qubits
    d = op.shape[0]
    out = np.eye(cdim * d, dtype=complex)
    out[(cdim - 1) * d:, (cdim - 1) * d:] = op
    return out


def accept_projector(v: np.ndarray) -> np.ndarray:
    """V^dagger (|1><1| x Id) V: the accepting projector of a check that
    applies the unitary v and then reads its first qubit."""
    return v.conj().T @ np.kron(P1, np.eye(v.shape[0] // 2, dtype=complex)) @ v


def projector_onto(vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def checked_unitary(mat, qubits: int, what: str) -> np.ndarray:
    """A caller's matrix as a read-only complex unitary on `qubits` qubits.

    Raises DimensionMismatchError for a wrong shape and StateValidationError
    for a matrix that is not unitary within 1e-9; `what` names the matrix in
    both messages. This is the one unitarity check on data entering the
    package.
    """
    out = np.array(mat, dtype=complex)
    dim = 2 ** qubits
    if out.shape != (dim, dim):
        raise DimensionMismatchError(f"{what} must be {dim}x{dim}, got shape {out.shape}")
    if not is_unitary(out):
        raise StateValidationError(f"{what} is not unitary")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class UnitaryOp:
    """A unitary matrix together with the registers it acts on.

    The matrix indexes the concatenation of the named registers in the given
    order; it is extended by the identity on all other registers when applied.
    """

    matrix: np.ndarray
    acts_on: tuple[str, ...]

    def __post_init__(self):
        mat = np.asarray(self.matrix)
        qubits = mat.shape[0].bit_length() - 1 if mat.ndim else 0
        object.__setattr__(self, "matrix", checked_unitary(mat, qubits, "matrix"))
        object.__setattr__(self, "acts_on", tuple(self.acts_on))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """A complete family of orthogonal projectors."""

    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        projs = tuple(np.asarray(p, dtype=complex) for p in self.projectors)
        object.__setattr__(self, "projectors", projs)
        if not projs:
            raise StateValidationError("measurement needs at least one projector")
        dim = projs[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for p in projs:
            if p.shape != (dim, dim):
                raise DimensionMismatchError("projectors have mismatched dims")
            if not is_projector(p):
                raise StateValidationError("element is not an orthogonal projector")
            total += p
        if not close(total, np.eye(dim), EPS):
            raise StateValidationError("projectors do not sum to the identity")
        for p in projs:
            p.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]


@dataclass(frozen=True)
class Povm:
    """Positive operator-valued measure: PSD elements summing to the identity."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        elems = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        object.__setattr__(self, "elements", elems)
        if not elems:
            raise StateValidationError("POVM needs at least one element")
        dim = elems[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for e in elems:
            if e.shape != (dim, dim):
                raise DimensionMismatchError("POVM elements have mismatched dims")
            if not is_hermitian(e):
                raise StateValidationError("POVM element is not Hermitian")
            if np.linalg.eigvalsh((e + e.conj().T) / 2).min() < -EPS:
                raise StateValidationError("POVM element is not PSD")
            total += e
        if not close(total, np.eye(dim), EPS):
            raise StateValidationError("POVM elements do not sum to the identity")
        for e in elems:
            e.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]
