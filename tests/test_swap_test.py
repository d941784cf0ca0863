"""SWAP test: POVM path, circuit path, the in-state projector branches, and
the overlap law (1 + f) / 2."""

import numpy as np
import pytest

from qpzk.core import (
    PureState,
    RegisterLayout,
    random_density,
    random_pure_state,
    rng_from,
    swap_test_povm,
    tensor,
)
from qpzk.core.operators import Povm
from qpzk.core.swap_test import swap_test_circuit_probability, symmetric_projector_outcomes
from qpzk.errors import DimensionMismatchError

A = RegisterLayout.single("A", 1)


def projector_branches(rho, psi):
    """SWAP-test branches of rho (register A) against psi (register B)."""
    joint = tensor(rho, psi.relabel(RegisterLayout.single("B", psi.n_qubits)))
    return symmetric_projector_outcomes(joint, "A", "B")


class TestSwapTest:
    def test_identical_pure_states_always_accept(self):
        rng = rng_from(31)
        psi = random_pure_state(A, rng)
        accept, reject = projector_branches(psi.to_mixed(), psi)
        assert accept.probability == pytest.approx(1.0, abs=1e-12)
        assert swap_test_povm(psi.to_mixed(), psi) == pytest.approx(1.0, abs=1e-12)
        assert reject.post is None

    def test_orthogonal_states_accept_half(self):
        zero = PureState.from_bits(A, "0")
        one = PureState.from_bits(A, "1")
        assert swap_test_povm(zero.to_mixed(), one) == pytest.approx(0.5, abs=1e-12)
        assert swap_test_circuit_probability(zero.to_mixed(), one) == pytest.approx(0.5, abs=1e-12)

    def test_overlap_law(self):
        rng = rng_from(32)
        for _ in range(50):
            rho = random_density(A, rng)
            psi = random_pure_state(A, rng)
            f = float(np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes).real)
            assert swap_test_povm(rho, psi) == pytest.approx((1 + f) / 2, abs=1e-12)

    @pytest.mark.parametrize("qubits", [1, 2, 3])
    def test_circuit_and_povm_paths_agree(self, qubits):
        lay = RegisterLayout.single("A", qubits)
        rng = rng_from(40 + qubits)
        for _ in range(40):
            rho = random_density(lay, rng)
            psi = random_pure_state(lay, rng)
            p_povm = swap_test_povm(rho, psi)
            p_circuit = swap_test_circuit_probability(rho, psi)
            p_projector = projector_branches(rho, psi)[0].probability
            assert p_circuit == pytest.approx(p_povm, abs=1e-9)
            assert p_projector == pytest.approx(p_povm, abs=1e-9)

    def test_post_states_are_valid(self):
        rng = rng_from(44)
        rho = random_density(A, rng)
        psi = random_pure_state(A, rng)
        accept, reject = projector_branches(rho, psi)
        assert abs(accept.post.trace() - 1.0) < 1e-9
        assert abs(reject.post.trace() - 1.0) < 1e-9
        total = (accept.probability * accept.post.matrix
                 + reject.probability * reject.post.matrix)
        # Branches recombine to the symmetric+antisymmetric decomposition of
        # the unmeasured joint state diagonal blocks; trace is preserved.
        assert np.trace(total).real == pytest.approx(1.0, abs=1e-9)

    def test_dim_mismatch(self):
        two = RegisterLayout.single("A", 2)
        rho, psi = random_density(A, rng_from(1)), PureState.computational(two)
        with pytest.raises(DimensionMismatchError):
            swap_test_povm(rho, psi)
        with pytest.raises(DimensionMismatchError):
            swap_test_circuit_probability(rho, psi)
        with pytest.raises(DimensionMismatchError):
            projector_branches(rho, psi)

    def test_povm_elements_are_a_valid_measure(self):
        rng = rng_from(45)
        psi = random_pure_state(RegisterLayout.single("A", 2), rng)
        proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
        eye = np.eye(psi.dim, dtype=complex)
        povm = Povm(((eye + proj) / 2, (eye - proj) / 2))
        rho = random_density(RegisterLayout.single("A", 2), rng)
        p0 = float(np.trace(povm.elements[0] @ rho.matrix).real)
        assert p0 == pytest.approx(swap_test_povm(rho, psi), abs=1e-12)
