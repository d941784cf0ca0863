"""Unitaries, projective measurements and POVMs over named registers."""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from qpzk.core.linalg import EPS, is_hermitian, is_projector, is_unitary
from qpzk.errors import DimensionMismatchError, StateValidationError

# Standard gates.
ID2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
SWAP2 = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
# Computational-basis projectors |0><0| and |1><1|; |1><1| on the first
# workspace qubit is every protocol's accept readout.
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def swap_registers(qubits: int) -> np.ndarray:
    """SWAP of two equally sized blocks of `qubits` qubits each."""
    dim = 2 ** qubits
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            out[b * dim + a, a * dim + b] = 1.0
    return out


def controlled(op: np.ndarray, control_qubits: int = 1) -> np.ndarray:
    """Controlled version of op; controls occupy the leading qubits."""
    cdim = 2 ** control_qubits
    d = op.shape[0]
    out = np.eye(cdim * d, dtype=complex)
    out[(cdim - 1) * d:, (cdim - 1) * d:] = op
    return out


def projector_onto(vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


@dataclass(frozen=True)
class UnitaryOp:
    """A unitary matrix together with the registers it acts on.

    The matrix indexes the concatenation of the named registers in the given
    order; it is extended by the identity on all other registers when applied.
    """

    matrix: np.ndarray
    acts_on: tuple[str, ...]

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "acts_on", tuple(self.acts_on))
        if not is_unitary(mat):
            raise StateValidationError("matrix is not unitary within 1e-9")
        mat.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dagger(self) -> "UnitaryOp":
        return UnitaryOp(self.matrix.conj().T, self.acts_on)


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
        if not np.allclose(total, np.eye(dim), atol=EPS):
            raise StateValidationError("projectors do not sum to the identity")
        for p in projs:
            p.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    @classmethod
    def two_outcome(cls, pi: np.ndarray) -> "ProjectiveMeasurement":
        """The pair {Id - pi, pi}; outcome 1 is the given projector."""
        pi = np.asarray(pi, dtype=complex)
        return cls((np.eye(pi.shape[0], dtype=complex) - pi, pi))


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
        if not np.allclose(total, np.eye(dim), atol=EPS):
            raise StateValidationError("POVM elements do not sum to the identity")
        for e in elems:
            e.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]
