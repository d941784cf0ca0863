"""Dense linear algebra kernels shared by the state and operator types.

All kernels take plain ndarrays; qubit positions are indexed from the most
significant bit of the state index.
"""

from __future__ import annotations

import numpy as np

from qpzk.errors import DimensionMismatchError, StateValidationError

EPS = 1e-9


def _check_targets(targets, n: int, op_dim: int):
    if len(set(targets)) != len(targets):
        raise DimensionMismatchError(f"repeated target qubits {targets}")
    if any(t < 0 or t >= n for t in targets):
        raise DimensionMismatchError(f"target qubits {targets} outside 0..{n - 1}")
    if op_dim != 2 ** len(targets):
        raise DimensionMismatchError(
            f"operator dim {op_dim} does not match {len(targets)} target qubits"
        )


def apply_to_vector(op: np.ndarray, vec: np.ndarray, targets, n: int) -> np.ndarray:
    """Apply op on the given qubits of an n-qubit state vector."""
    _check_targets(targets, n, op.shape[0])
    k = len(targets)
    rest = [q for q in range(n) if q not in targets]
    perm = list(targets) + rest
    t = vec.reshape((2,) * n).transpose(perm).reshape(2 ** k, -1)
    t = op @ t
    inv = np.argsort(perm)
    return t.reshape((2,) * n).transpose(inv).reshape(-1)


def apply_to_matrix(op: np.ndarray, mat: np.ndarray, targets, n: int) -> np.ndarray:
    """Conjugate an n-qubit density-like matrix: op . mat . op^dagger."""
    _check_targets(targets, n, op.shape[0])
    k = len(targets)
    rest = [q for q in range(n) if q not in targets]
    perm = list(targets) + rest
    inv = np.argsort(perm)
    # Rows.
    t = mat.reshape((2,) * n + (2 ** n,)).transpose(perm + [n]).reshape(2 ** k, -1)
    t = op @ t
    t = t.reshape((2,) * n + (2 ** n,)).transpose(list(inv) + [n]).reshape(2 ** n, 2 ** n)
    # Columns.
    t = t.conj().T
    t = t.reshape((2,) * n + (2 ** n,)).transpose(perm + [n]).reshape(2 ** k, -1)
    t = op @ t
    t = t.reshape((2,) * n + (2 ** n,)).transpose(list(inv) + [n]).reshape(2 ** n, 2 ** n)
    return t.conj().T


def embed(op: np.ndarray, targets, n: int) -> np.ndarray:
    """Full 2^n matrix acting as op on targets and identity elsewhere."""
    _check_targets(targets, n, op.shape[0])
    k = len(targets)
    rest = [q for q in range(n) if q not in targets]
    perm = list(targets) + rest
    inv = list(np.argsort(perm))
    full = np.kron(op, np.eye(2 ** (n - k), dtype=complex))
    # full indexes qubits in perm order on both sides; restore natural order.
    t = full.reshape((2,) * (2 * n))
    t = t.transpose(inv + [n + i for i in inv])
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


def partial_trace_vector(vec: np.ndarray, keep, n: int) -> np.ndarray:
    """Reduced density matrix of a pure state on the kept qubits."""
    drop = [q for q in range(n) if q not in keep]
    perm = list(keep) + drop
    a = vec.reshape((2,) * n).transpose(perm).reshape(2 ** len(keep), -1)
    return a @ a.conj().T


def half_trace_norm(diff: np.ndarray) -> float:
    """Half the trace norm of a Hermitian difference: the trace distance
    when diff is the difference of two density matrices."""
    return float(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum() / 2)


def is_unitary(mat: np.ndarray, tol: float = EPS) -> bool:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return False
    d = mat.shape[0]
    return bool(np.allclose(mat.conj().T @ mat, np.eye(d), atol=tol))


def is_hermitian(mat: np.ndarray, tol: float = EPS) -> bool:
    return bool(np.allclose(mat, mat.conj().T, atol=tol))


def is_projector(mat: np.ndarray, tol: float = EPS) -> bool:
    return is_hermitian(mat, tol) and bool(np.allclose(mat @ mat, mat, atol=tol))


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
    u = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        bits = [(i >> (n - 1 - q)) & 1 for q in range(n)]
        j = 0
        for q in range(n):
            j = (j << 1) | bits[order[q]]
        u[j, i] = 1.0
    return u
