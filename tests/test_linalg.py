"""Dense kernels: the unitarity tolerance, the qubit-target checks, SWAP."""

import numpy as np
import pytest

from qpzk.core import linalg, random_unitary, rng_from
from qpzk.core.operators import X, swap_registers
from qpzk.errors import DimensionMismatchError


def _allclose_unitary(m: np.ndarray, tol: float) -> bool:
    return bool(np.allclose(m.conj().T @ m, np.eye(m.shape[0]), atol=tol))


class TestIsUnitary:
    @pytest.mark.parametrize("qubits", range(1, 7))
    def test_random_unitaries(self, qubits):
        rng = rng_from(60, qubits)
        for _ in range(3):
            u = random_unitary(2 ** qubits, rng)
            assert _allclose_unitary(u, linalg.EPS)
            assert linalg.is_unitary(u)
            bad = u.copy()
            bad[0, 0] += 1e-3
            assert not _allclose_unitary(bad, linalg.EPS)
            assert not linalg.is_unitary(bad)

    @pytest.mark.parametrize("tol", [linalg.EPS, 1e-6])
    @pytest.mark.parametrize("factor,want", [(0.9, True), (1.1, False)])
    def test_off_diagonal_gram_entry_against_tol(self, tol, factor, want):
        # Gram matrix [[1, eps], [eps, 1 + eps^2]]: off the diagonal only atol counts.
        m = np.array([[1.0, factor * tol], [0.0, 1.0]], dtype=complex)
        assert _allclose_unitary(m, tol) == want
        assert linalg.is_unitary(m, tol) == want

    @pytest.mark.parametrize("tol", [linalg.EPS, 1e-6])
    @pytest.mark.parametrize("extra,want", [(0.9e-5, True), (1.1e-5, False)])
    def test_diagonal_gram_entry_gets_the_relative_slack(self, tol, extra, want):
        m = np.diag([np.sqrt(1.0 + tol + extra), 1.0, 1.0]).astype(complex)
        assert _allclose_unitary(m, tol) == want
        assert linalg.is_unitary(m, tol) == want

    def test_nan_entry_rejected(self):
        m = np.eye(2, dtype=complex)
        m[1, 0] = np.nan
        assert not _allclose_unitary(m, linalg.EPS)
        assert not linalg.is_unitary(m)

    def test_non_square_and_one_dimensional_rejected(self):
        assert not linalg.is_unitary(np.eye(4, 2, dtype=complex))
        assert not linalg.is_unitary(np.ones(2, dtype=complex))


VEC = np.arange(8, dtype=complex)
KERNELS = [
    ("apply_to_vector", lambda op, t: linalg.apply_to_vector(op, VEC, t, 3)),
    ("apply_to_matrix", lambda op, t: linalg.apply_to_matrix(op, np.outer(VEC, VEC), t, 3)),
    ("embed", lambda op, t: linalg.embed(op, t, 3)),
]
KERNEL_IDS = [name for name, _ in KERNELS]
CNOT_LIKE = np.kron(X, np.diag([1.0, 1j]))


class TestTargetChecks:
    @pytest.mark.parametrize("name,kernel", KERNELS, ids=KERNEL_IDS)
    @pytest.mark.parametrize("targets,op,message", [
        ([0, 0], CNOT_LIKE, "repeated target qubits [0, 0]"),
        ((1, 1), CNOT_LIKE, "repeated target qubits (1, 1)"),
        ([0, 3], CNOT_LIKE, "target qubits [0, 3] outside 0..2"),
        ([-1], X, "target qubits [-1] outside 0..2"),
        ([2, 0], X, "operator dim 2 does not match 2 target qubits"),
    ], ids=["repeated-list", "repeated-tuple", "out-of-range", "negative", "op-dim"])
    def test_bad_targets_raise_on_every_call(self, name, kernel, targets, op, message):
        for _ in range(3):
            with pytest.raises(DimensionMismatchError) as err:
                kernel(op, targets)
            assert str(err.value) == message

    @pytest.mark.parametrize("name,kernel", KERNELS, ids=KERNEL_IDS)
    def test_op_dim_checked_after_a_successful_call(self, name, kernel):
        kernel(CNOT_LIKE, [2, 1])
        with pytest.raises(DimensionMismatchError,
                           match="operator dim 8 does not match 2 target qubits"):
            kernel(np.eye(8, dtype=complex), [2, 1])

    @pytest.mark.parametrize("name,kernel", KERNELS, ids=KERNEL_IDS)
    def test_target_container_does_not_matter(self, name, kernel):
        results = [kernel(CNOT_LIKE, t) for t in
                   ([2, 0], (2, 0), np.array([2, 0]), [np.int64(2), np.int64(0)])]
        for out in results[1:]:
            assert np.array_equal(out, results[0])

    def test_apply_to_vector_matches_a_permuted_kron(self):
        rng = rng_from(61)
        vec = random_unitary(16, rng)[:, 0]
        for targets in ([3, 1], [0, 2], [1, 0]):
            op = random_unitary(4, rng)
            order = targets + [q for q in range(4) if q not in targets]
            p = linalg.permutation_unitary(order, 4)
            want = p.T @ np.kron(op, np.eye(4)) @ p @ vec
            np.testing.assert_allclose(linalg.apply_to_vector(op, vec, targets, 4), want,
                                       atol=1e-12)


@pytest.mark.parametrize("qubits", [1, 2, 3])
def test_swap_registers_exchanges_the_blocks(qubits):
    dim = 2 ** qubits
    want = np.zeros((dim * dim, dim * dim), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            want[b * dim + a, a * dim + b] = 1.0
    got = swap_registers(qubits)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    order = list(range(qubits, 2 * qubits)) + list(range(qubits))
    assert np.array_equal(got, linalg.permutation_unitary(order, 2 * qubits))
