"""Dense linear algebra kernels shared by the state and operator types.

All kernels take plain ndarrays; qubit positions are indexed from the most
significant bit of the state index.
"""

from __future__ import annotations

import functools

import numpy as np

from qpzk.errors import DimensionMismatchError, StateValidationError

EPS = 1e-9


@functools.lru_cache(maxsize=1024)
def _qubit_plan(targets: tuple, n: int):
    """(perm, inv, shape) for an op on targets of an n-qubit index, or the
    message template of the check the targets fail. perm puts the targets
    first, inv undoes it, shape is (2,) * n."""
    if len(set(targets)) != len(targets):
        return "repeated target qubits {}"
    if any(t < 0 or t >= n for t in targets):
        return f"target qubits {{}} outside 0..{n - 1}"
    perm = targets + tuple(q for q in range(n) if q not in targets)
    inv = tuple(int(i) for i in np.argsort(perm))
    return perm, inv, (2,) * n


def target_plan(targets, n: int, op_dim: int):
    """Checked qubit plan for an op of dimension op_dim on targets of an
    n-qubit index; raises DimensionMismatchError for repeated or
    out-of-range targets or a wrong op dimension. Every kernel call runs it,
    and protocol construction runs it once per gate."""
    plan = _qubit_plan(tuple(targets), n)
    if isinstance(plan, str):
        raise DimensionMismatchError(plan.format(targets))
    if op_dim != 2 ** len(targets):
        raise DimensionMismatchError(
            f"operator dim {op_dim} does not match {len(targets)} target qubits"
        )
    return plan


def apply_to_vector(op: np.ndarray, vec: np.ndarray, targets, n: int) -> np.ndarray:
    """Apply op on the given qubits of an n-qubit state vector, or of every
    column of a (2^n, k) block. An (s, d, d) stack of ops, or one op as
    (1, d, d), acts on an (s, 2^n) stack of vectors, op i on vector i, and
    each vector's result is bit for bit that of its own call."""
    perm, inv, shape = target_plan(targets, n, op.shape[-1])
    if op.ndim == 3:
        t = op @ split(vec, targets, n)
        return t.reshape(vec.shape[:1] + shape).transpose(_stacked(inv)).reshape(vec.shape)
    if vec.ndim == 2:
        perm, inv, shape = perm + (n,), inv + (n,), shape + vec.shape[1:]
    t = vec.reshape(shape).transpose(perm).reshape(op.shape[0], -1)
    t = op @ t
    return t.reshape(shape).transpose(inv).reshape(vec.shape)


def apply_to_matrix(op: np.ndarray, mat: np.ndarray, targets, n: int) -> np.ndarray:
    """Conjugate an n-qubit density-like matrix: op . mat . op^dagger, as op
    on the columns of mat and then on the columns of the result's dagger."""
    t = apply_to_vector(op, mat, targets, n).conj().T
    return apply_to_vector(op, t, targets, n).conj().T


def apply_gates(gates, vec: np.ndarray, n: int) -> np.ndarray:
    """Apply a list of (matrix, wires) gates in order to an n-qubit vector
    or (2^n, k) column block."""
    for op, wires in gates:
        vec = apply_to_vector(op, vec, wires, n)
    return vec


def placed(gates, wires) -> tuple:
    """The gates with local wire k moved to wires[k]."""
    return tuple((op, tuple(wires[w] for w in local)) for op, local in gates)


def adjoint(gates) -> tuple:
    """Gate list of the inverse: the daggers in reverse order (of each op
    of a stack)."""
    return tuple((op.conj().swapaxes(-1, -2), wires) for op, wires in reversed(gates))


def gate_product(gates, n: int) -> np.ndarray:
    """Dense 2^n matrix of a list of (matrix, wires) gates, first gate applied
    first. The gates act on the identity 64 columns at a time, so no
    temporary is larger than a 2^n x 64 block."""
    dim = 2 ** n
    out = np.empty((dim, dim), dtype=complex)
    for start in range(0, dim, 64):
        block = np.eye(dim, min(64, dim - start), -start, dtype=complex)
        out[:, start:start + block.shape[1]] = apply_gates(gates, block, n)
    return out


def embed(op: np.ndarray, targets, n: int) -> np.ndarray:
    """Full 2^n matrix acting as op on targets and identity elsewhere."""
    _, inv, shape = target_plan(targets, n, op.shape[0])
    full = np.kron(op, np.eye(2 ** (n - len(targets)), dtype=complex))
    # full indexes qubits in perm order on both sides; restore natural order.
    t = full.reshape(shape + shape)
    t = t.transpose(inv + tuple(n + i for i in inv))
    return t.reshape(2 ** n, 2 ** n)


def partial_trace_matrix(mat: np.ndarray, keep, n: int) -> np.ndarray:
    """Trace out all qubits not in keep; keep order defines the result order."""
    drop = [q for q in range(n) if q not in keep]
    perm = list(keep) + drop
    kdim = 2 ** len(keep)
    ddim = 2 ** len(drop)
    t = mat.reshape((2,) * (2 * n))
    t = t.transpose(perm + [n + p for p in perm])
    t = t.reshape(kdim, ddim, kdim, ddim)
    return np.einsum("idjd->ij", t)


def split(vec: np.ndarray, qubits, n: int) -> np.ndarray:
    """An n-qubit vector as the (2^k, 2^(n-k)) matrix whose rows index the k
    given qubits in the given order and whose columns index the others in
    natural order, or an (s, 2^n) stack of vectors as the (s, 2^k, 2^(n-k))
    stack of theirs; raises DimensionMismatchError for bad qubits."""
    perm, _, shape = target_plan(qubits, n, 2 ** len(qubits))
    if vec.ndim == 2:
        perm, shape = _stacked(perm), vec.shape[:1] + shape
    return vec.reshape(shape).transpose(perm).reshape(vec.shape[:-1] + (2 ** len(qubits), -1))


@functools.lru_cache(maxsize=1024)
def _stacked(order: tuple) -> tuple:
    """An axis order of the qubit axes, behind a leading stack axis."""
    return (0,) + tuple(q + 1 for q in order)


def partial_trace_vector(vec: np.ndarray, keep, n: int) -> np.ndarray:
    """Reduced density matrix of a pure state on the kept qubits."""
    a = split(vec, keep, n)
    return a @ a.conj().T


def half_trace_norm(diff: np.ndarray) -> float:
    """Half the trace norm of a Hermitian difference: the trace distance
    when diff is the difference of two density matrices."""
    return float(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum() / 2)


def close(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """np.allclose(a, b, atol=tol) with its default rtol of 1e-5 written out,
    except that any NaN or infinite entry fails the comparison."""
    return bool(np.isfinite(b).all() and (np.abs(a - b) <= tol + 1e-5 * np.abs(b)).all())


def is_unitary(mat: np.ndarray, tol: float = EPS) -> bool:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return False
    return close(mat.conj().T @ mat, np.eye(mat.shape[0]), tol)


def is_hermitian(mat: np.ndarray, tol: float = EPS) -> bool:
    return close(mat, mat.conj().T, tol)


def is_projector(mat: np.ndarray, tol: float = EPS) -> bool:
    return is_hermitian(mat, tol) and close(mat @ mat, mat, tol)


def clamped_eigh(mat: np.ndarray, tol: float = EPS):
    """Eigendecomposition of a near-PSD Hermitian matrix.

    Eigenvalues in [-tol, 0) are clamped to 0; anything below -tol raises.
    """
    vals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2)
    if vals.min() < -tol:
        raise StateValidationError(
            f"matrix is not positive semi-definite (min eigenvalue {vals.min():.3e})"
        )
    return np.clip(vals, 0.0, None), vecs


def psd_sqrt(mat: np.ndarray, tol: float = EPS) -> np.ndarray:
    """Principal square root of a near-PSD Hermitian matrix."""
    vals, vecs = clamped_eigh(mat, tol)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def polar_unitary(mat: np.ndarray) -> np.ndarray:
    """Unitary factor W of the polar decomposition mat = P W (P PSD)."""
    u, _, vh = np.linalg.svd(mat)
    return u @ vh


def basis_vector(index: int, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def permute_vector(vec: np.ndarray, order, n: int) -> np.ndarray:
    """Reorder qubits: new position i holds old qubit order[i]."""
    return vec.reshape((2,) * n).transpose(list(order)).reshape(-1)


def permute_matrix(mat: np.ndarray, order, n: int) -> np.ndarray:
    order = list(order)
    t = mat.reshape((2,) * (2 * n))
    t = t.transpose(order + [n + o for o in order])
    return t.reshape(2 ** n, 2 ** n)


def complete_to_unitary(first_column: np.ndarray) -> np.ndarray:
    """A unitary whose first column is the given unit vector (Householder)."""
    v = np.asarray(first_column, dtype=complex).reshape(-1)
    dim = v.shape[0]
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-9:
        raise StateValidationError("column must be a unit vector")
    e0 = basis_vector(0, dim)
    alpha = v[0] / abs(v[0]) if abs(v[0]) > 1e-12 else 1.0
    target = np.conj(alpha) * v  # real non-negative first component
    w = target - e0
    wn = np.linalg.norm(w)
    if wn < 1e-12:
        return alpha * np.eye(dim, dtype=complex)
    h = np.eye(dim, dtype=complex) - 2.0 * np.outer(w, w.conj()) / (wn ** 2)
    return alpha * h


def permutation_unitary(order, n: int) -> np.ndarray:
    """Permutation matrix with the same convention as permute_vector."""
    dim = 2 ** n
    return np.eye(dim, dtype=complex)[permute_vector(np.arange(dim), order, n)]
