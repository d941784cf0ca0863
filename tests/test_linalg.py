"""Dense kernels: the unitarity tolerance, the qubit-target checks, SWAP,
and the operator-on-wires identities as property tests."""

import itertools
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

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


FINITE = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


class TestClose:
    @given(data=st.data(), dim=st.integers(1, 4),
           scale=st.sampled_from([0.0, 1e-10, 1e-9, 1e-6, 1e-5, 1e-3]),
           tol=st.sampled_from([0.0, linalg.EPS, 1e-6]))
    def test_matches_allclose_on_finite_matrices(self, data, dim, scale, tol):
        # Perturbations on both sides of atol + rtol * |b|.
        b = np.array(data.draw(st.lists(FINITE, min_size=dim * dim, max_size=dim * dim)))
        noise = np.array(data.draw(st.lists(st.complex_numbers(max_magnitude=2),
                                            min_size=dim * dim, max_size=dim * dim)))
        b = b.reshape(dim, dim)
        a = b + scale * (1.0 + np.abs(b)) * noise.reshape(dim, dim)
        assert linalg.close(a, b, tol) == bool(np.allclose(a, b, atol=tol))

    @pytest.mark.parametrize("a,b", [
        (np.nan, 1.0), (1.0, np.nan), (np.nan, np.nan),
        (np.inf, 1.0), (1.0, np.inf), (np.inf, np.inf), (-np.inf, np.inf),
        (complex(np.inf, 0.0), complex(np.inf, 0.0)), (complex(1.0, np.nan), 1.0),
    ], ids=["nan-a", "nan-b", "nan-both", "inf-a", "inf-b", "equal-inf",
            "opposite-inf", "equal-complex-inf", "complex-nan-a"])
    def test_any_non_finite_entry_fails(self, a, b):
        # np.allclose passes equal infinities; written out naively, so does a
        # finite a against an infinite b.
        a_mat, b_mat = np.eye(2, dtype=complex), np.eye(2, dtype=complex)
        a_mat[0, 1], b_mat[0, 1] = a, b
        assert not linalg.close(a_mat, b_mat, 1e-6)

    def test_decides_the_structural_checks(self):
        h = np.array([[1.0, 1j], [-1j, np.inf]])
        assert not linalg.is_hermitian(h)
        assert not linalg.is_projector(np.diag([1.0, np.nan]))
        assert linalg.is_projector(np.diag([1.0, 0.0]))


VEC = np.arange(8, dtype=complex)
BLOCK = np.arange(24, dtype=complex).reshape(8, 3)
KERNELS = [
    ("apply_to_vector", lambda op, t: linalg.apply_to_vector(op, VEC, t, 3)),
    ("apply_to_vector_block", lambda op, t: linalg.apply_to_vector(op, BLOCK, t, 3)),
    ("apply_to_matrix", lambda op, t: linalg.apply_to_matrix(op, np.outer(VEC, VEC), t, 3)),
    ("embed", lambda op, t: linalg.embed(op, t, 3)),
    ("gate_product", lambda op, t: linalg.gate_product([(op, t)], 3)),
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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_permutation_unitary_matches_the_bit_loop(n):
    dim = 2 ** n
    for order in itertools.permutations(range(n)):
        want = np.zeros((dim, dim), dtype=complex)
        for i in range(dim):
            bits = [(i >> (n - 1 - q)) & 1 for q in range(n)]
            j = 0
            for q in range(n):
                j = (j << 1) | bits[order[q]]
            want[j, i] = 1.0
        got = linalg.permutation_unitary(order, n)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


# -- operator on wires: property tests ------------------------------------------


SEEDS = st.integers(0, 2 ** 32 - 1)


def _draw_targets(draw, n: int) -> list[int]:
    """One to three distinct wires of n, in a random order."""
    k = draw(st.integers(1, min(n, 3)))
    return list(draw(st.permutations(range(n)))[:k])


@st.composite
def wires(draw):
    """(n <= 6, targets, seed for the arrays)."""
    n = draw(st.integers(1, 6))
    return n, _draw_targets(draw, n), draw(SEEDS)


@st.composite
def gate_lists(draw):
    """(n <= 6, one to five (targets, seed) pairs)."""
    n = draw(st.integers(1, 6))
    size = draw(st.integers(1, 5))
    return n, [(_draw_targets(draw, n), draw(SEEDS)) for _ in range(size)]


def _complex(rng, *shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _close(got: np.ndarray, want: np.ndarray) -> None:
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestOperatorOnWires:
    @given(wires())
    def test_vector_form_matches_embed(self, case):
        n, targets, seed = case
        rng = np.random.default_rng(seed)
        op = random_unitary(2 ** len(targets), rng)
        vec = _complex(rng, 2 ** n)
        _close(linalg.apply_to_vector(op, vec, targets, n),
               linalg.embed(op, targets, n) @ vec)

    @given(wires(), st.integers(1, 5))
    def test_block_form_matches_embed(self, case, cols):
        n, targets, seed = case
        rng = np.random.default_rng(seed)
        op = random_unitary(2 ** len(targets), rng)
        block = _complex(rng, 2 ** n, cols)
        got = linalg.apply_to_vector(op, block, targets, n)
        assert got.shape == block.shape
        _close(got, linalg.embed(op, targets, n) @ block)

    @given(wires())
    def test_apply_to_matrix_matches_embed_sandwich(self, case):
        n, targets, seed = case
        rng = np.random.default_rng(seed)
        op = random_unitary(2 ** len(targets), rng)
        rho = _complex(rng, 2 ** n, 2 ** n)
        full = linalg.embed(op, targets, n)
        _close(linalg.apply_to_matrix(op, rho, targets, n), full @ rho @ full.conj().T)

    @given(gate_lists())
    def test_gate_product_matches_the_embed_chain(self, case):
        n, spec = case
        gates, chain = [], np.eye(2 ** n, dtype=complex)
        for targets, seed in spec:
            op = random_unitary(2 ** len(targets), np.random.default_rng(seed))
            gates.append((op, targets))
            chain = linalg.embed(op, targets, n) @ chain
        _close(linalg.gate_product(gates, n), chain)


def test_gate_product_over_several_column_blocks():
    rng = rng_from(62)
    n = 8  # 256 columns: four blocks of 64
    gates = [(random_unitary(4, rng), [5, 1]), (random_unitary(2, rng), [7]),
             (random_unitary(8, rng), [0, 6, 3])]
    chain = np.eye(2 ** n, dtype=complex)
    for op, targets in gates:
        chain = linalg.embed(op, targets, n) @ chain
    _close(linalg.gate_product(gates, n), chain)


# -- partial trace, permutations, SWAP, target plan: property tests --------------


@st.composite
def kept_wires(draw):
    """(n <= 6, kept wires in a random order, possibly none, seed)."""
    n = draw(st.integers(1, 6))
    keep = list(draw(st.permutations(range(n)))[:draw(st.integers(0, n))])
    return n, keep, draw(SEEDS)


def _einsum_partial_trace(mat: np.ndarray, keep, n: int) -> np.ndarray:
    """Trace out the wires not in keep with one einsum over all 2n indices."""
    rows = list(range(n))
    cols = [n + q if q in keep else q for q in range(n)]
    out = list(keep) + [n + q for q in keep]
    t = np.einsum(mat.reshape((2,) * (2 * n)), rows + cols, out)
    return t.reshape(2 ** len(keep), 2 ** len(keep))


class TestPartialTrace:
    @given(kept_wires())
    def test_matrix_form_matches_einsum(self, case):
        n, keep, seed = case
        mat = _complex(np.random.default_rng(seed), 2 ** n, 2 ** n)
        _close(linalg.partial_trace_matrix(mat, keep, n), _einsum_partial_trace(mat, keep, n))

    @given(kept_wires())
    def test_vector_form_matches_einsum(self, case):
        n, keep, seed = case
        vec = _complex(np.random.default_rng(seed), 2 ** n)
        _close(linalg.partial_trace_vector(vec, keep, n),
               _einsum_partial_trace(np.outer(vec, vec.conj()), keep, n))


class TestSplit:
    @given(kept_wires())
    def test_matches_a_bit_by_bit_index(self, case):
        n, qubits, seed = case
        vec = _complex(np.random.default_rng(seed), 2 ** n)
        rest = [q for q in range(n) if q not in qubits]
        got = linalg.split(vec, qubits, n)
        assert got.shape == (2 ** len(qubits), 2 ** len(rest))
        for index in range(2 ** n):
            bits = [(index >> (n - 1 - q)) & 1 for q in range(n)]
            row = sum(bits[q] << (len(qubits) - 1 - k) for k, q in enumerate(qubits))
            col = sum(bits[q] << (len(rest) - 1 - k) for k, q in enumerate(rest))
            assert got[row, col] == vec[index]

    @pytest.mark.parametrize("qubits,message", [
        ([1, 1], "repeated target qubits"),
        ([0, 2, 0], "repeated target qubits"),
        ([0, 3], "outside 0..2"),
        ([-1], "outside 0..2"),
    ], ids=["repeated", "repeated-apart", "out-of-range", "negative"])
    def test_bad_qubits_raise(self, qubits, message):
        with pytest.raises(DimensionMismatchError, match=message):
            linalg.split(np.zeros(8, dtype=complex), qubits, 3)


class TestStackForm:
    """A stack of vectors gives, vector by vector, exactly the results of
    one call per vector."""

    @given(wires(), st.integers(1, 4), st.booleans(), st.booleans())
    def test_apply_matches_each_vector_bit_for_bit(self, case, s, one_op, daggered):
        n, targets, seed = case
        rng = np.random.default_rng(seed)
        ops = np.stack([random_unitary(2 ** len(targets), rng)
                        for _ in range(1 if one_op else s)])
        if daggered:  # each op a transposed view, as an aligned slot is
            ops = ops.conj().swapaxes(-1, -2)
        stack = _complex(rng, s, 2 ** n)
        got = linalg.apply_to_vector(ops, stack, targets, n)
        assert got.shape == stack.shape
        for i in range(s):
            want = linalg.apply_to_vector(ops[0 if one_op else i], stack[i], targets, n)
            assert np.array_equal(got[i], want)

    @given(kept_wires(), st.integers(1, 4))
    def test_split_matches_each_vector(self, case, s):
        n, qubits, seed = case
        stack = _complex(np.random.default_rng(seed), s, 2 ** n)
        got = linalg.split(stack, qubits, n)
        assert got.shape == (s, 2 ** len(qubits), 2 ** (n - len(qubits)))
        for i in range(s):
            assert np.array_equal(got[i], linalg.split(stack[i], qubits, n))


def test_only_linalg_splits_an_index_into_qubit_axes():
    """Viewing a state along qubits is linalg's job (split, permute_vector):
    no other source file reshapes to (2,) * n or transposes axes."""
    src = Path(__file__).resolve().parents[1] / "src" / "qpzk"
    pattern = re.compile(r"reshape\(\(2,\) \*|\.transpose\(")
    found = [f"{path.relative_to(src)}:{lineno}: {line.strip()}"
             for path in sorted(src.rglob("*.py")) if path != src / "core" / "linalg.py"
             for lineno, line in enumerate(path.read_text().splitlines(), 1)
             if pattern.search(line)]
    assert not found, "\n".join(found)


class TestPermutations:
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.permutations(range(n)), SEEDS)))
    def test_permute_round_trips(self, case):
        n, order, seed = case
        rng = np.random.default_rng(seed)
        vec, mat = _complex(rng, 2 ** n), _complex(rng, 2 ** n, 2 ** n)
        back = list(np.argsort(order))
        assert np.array_equal(
            linalg.permute_vector(linalg.permute_vector(vec, order, n), back, n), vec)
        assert np.array_equal(
            linalg.permute_matrix(linalg.permute_matrix(mat, order, n), back, n), mat)
        p = linalg.permutation_unitary(order, n)
        assert np.array_equal(linalg.permute_vector(vec, order, n), p @ vec)
        _close(linalg.permute_matrix(mat, order, n), p @ mat @ p.T)

    @given(st.integers(1, 3), SEEDS)
    def test_swap_is_a_transpose(self, qubits, seed):
        dim = 2 ** qubits
        vec = _complex(np.random.default_rng(seed), dim * dim)
        assert np.array_equal(vec.reshape(dim, dim).T.reshape(-1),
                              swap_registers(qubits) @ vec)


class TestCachedTargetPlan:
    @given(wires())
    def test_cache_hit_matches_a_fresh_plan(self, case):
        n, targets, seed = case
        rng = np.random.default_rng(seed)
        op, vec = random_unitary(2 ** len(targets), rng), _complex(rng, 2 ** n)
        linalg._qubit_plan.cache_clear()
        fresh = linalg.apply_to_vector(op, vec, targets, n)
        assert linalg._qubit_plan.cache_info().misses == 1
        hit = linalg.apply_to_vector(op, vec, targets, n)
        assert linalg._qubit_plan.cache_info().hits == 1
        assert np.array_equal(hit, fresh)
        assert linalg._qubit_plan(tuple(targets), n) == \
            linalg._qubit_plan.__wrapped__(tuple(targets), n)

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(-2, n + 1), min_size=1, max_size=3))))
    def test_cache_hit_raises_the_same_error(self, case):
        n, targets = case
        if len(set(targets)) == len(targets) and all(0 <= t < n for t in targets):
            targets = targets + [targets[0]]
        op = np.eye(2 ** len(targets), dtype=complex)
        linalg._qubit_plan.cache_clear()
        messages = []
        for _ in range(2):
            with pytest.raises(DimensionMismatchError) as err:
                linalg.target_plan(targets, n, op.shape[0])
            messages.append(str(err.value))
        assert linalg._qubit_plan.cache_info().hits == 1
        assert messages[0] == messages[1]
