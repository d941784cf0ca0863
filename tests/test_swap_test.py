"""SWAP test: POVM path, circuit path, and the overlap law (1 + f) / 2."""

import numpy as np
import pytest

from qpzk.core import (
    PureState,
    RegisterLayout,
    random_density,
    random_pure_state,
    rng_from,
    swap_test,
    swap_test_povm,
)
from qpzk.core.operators import Povm
from qpzk.core.swap_test import swap_test_circuit_probability
from qpzk.errors import DimensionMismatchError

A = RegisterLayout.single("A", 1)


class TestSwapTest:
    def test_identical_pure_states_always_accept(self):
        rng = rng_from(31)
        psi = random_pure_state(A, rng)
        res = swap_test(psi.to_mixed(), psi)
        assert res.accept_probability == pytest.approx(1.0, abs=1e-12)
        assert res.post_reject is None

    def test_orthogonal_states_accept_half(self):
        zero = PureState.from_bits(A, "0")
        one = PureState.from_bits(A, "1")
        res = swap_test(zero.to_mixed(), one)
        assert res.accept_probability == pytest.approx(0.5, abs=1e-12)

    def test_overlap_law(self):
        rng = rng_from(32)
        for _ in range(50):
            rho = random_density(A, rng)
            psi = random_pure_state(A, rng)
            f = float(np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes).real)
            res = swap_test(rho, psi)
            assert res.accept_probability == pytest.approx((1 + f) / 2, abs=1e-12)

    @pytest.mark.parametrize("qubits", [1, 2, 3])
    def test_circuit_and_povm_paths_agree(self, qubits):
        lay = RegisterLayout.single("A", qubits)
        rng = rng_from(40 + qubits)
        for _ in range(40):
            rho = random_density(lay, rng)
            psi = random_pure_state(lay, rng)
            p_povm = swap_test_povm(rho, psi)
            p_circuit = swap_test_circuit_probability(rho, psi)
            p_kraus = swap_test(rho, psi).accept_probability
            assert p_circuit == pytest.approx(p_povm, abs=1e-9)
            assert p_kraus == pytest.approx(p_povm, abs=1e-9)

    def test_post_states_are_valid(self):
        rng = rng_from(44)
        rho = random_density(A, rng)
        psi = random_pure_state(A, rng)
        res = swap_test(rho, psi)
        assert abs(res.post_accept.trace() - 1.0) < 1e-9
        assert abs(res.post_reject.trace() - 1.0) < 1e-9
        total = (res.accept_probability * res.post_accept.matrix
                 + (1 - res.accept_probability) * res.post_reject.matrix)
        # Branches recombine to the symmetric+antisymmetric decomposition of
        # the unmeasured joint state diagonal blocks; trace is preserved.
        assert np.trace(total).real == pytest.approx(1.0, abs=1e-9)

    def test_dim_mismatch(self):
        two = RegisterLayout.single("A", 2)
        with pytest.raises(DimensionMismatchError):
            swap_test(random_density(A, rng_from(1)),
                      PureState.computational(two))

    def test_povm_elements_are_a_valid_measure(self):
        rng = rng_from(45)
        psi = random_pure_state(RegisterLayout.single("A", 2), rng)
        proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
        eye = np.eye(psi.dim, dtype=complex)
        povm = Povm(((eye + proj) / 2, (eye - proj) / 2))
        rho = random_density(RegisterLayout.single("A", 2), rng)
        p0 = float(np.trace(povm.elements[0] @ rho.matrix).real)
        assert p0 == pytest.approx(swap_test_povm(rho, psi), abs=1e-12)
