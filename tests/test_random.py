"""Haar sampling: unitarity, moments and stream determinism."""

import numpy as np
import pytest

from qpzk.core import RegisterLayout, random_pure_state, random_unitary, rng_from


class TestRandomUnitary:
    def test_dim_one_is_a_phase(self):
        u = random_unitary(1, rng_from(0))
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_unitarity(self, dim):
        rng = rng_from(50, dim)
        for _ in range(20):
            u = random_unitary(dim, rng)
            assert np.allclose(u.conj().T @ u, np.eye(dim), atol=1e-9)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            random_unitary(0, rng_from(0))


class TestHaarMoments:
    @pytest.mark.parametrize("qubits,dim", [(1, 2), (2, 4)])
    def test_mean_squared_overlap_is_one_over_d(self, qubits, dim):
        # First Haar moment of |<0|psi>|^2 is 1/d; 3 sigma tolerance.
        lay = RegisterLayout.single("A", qubits)
        rng = rng_from(51, qubits)
        n = 20000
        vals = np.empty(n)
        for i in range(n):
            vals[i] = abs(random_pure_state(lay, rng).amplitudes[0]) ** 2
        mean = vals.mean()
        sigma = vals.std(ddof=1) / np.sqrt(n)
        assert abs(mean - 1 / dim) <= 3 * sigma + 1e-4


class TestStreams:
    def test_same_key_same_stream(self):
        a = random_unitary(4, rng_from(99, 1, 2))
        b = random_unitary(4, rng_from(99, 1, 2))
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = random_unitary(4, rng_from(99, 1, 2))
        b = random_unitary(4, rng_from(99, 1, 3))
        assert not np.allclose(a, b)
