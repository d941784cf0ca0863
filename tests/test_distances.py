"""Trace distance, fidelity and the gentle-measurement bound.

Derived expectations were computed by hand from 2x2 eigenvalue problems and
are frozen below; sampled properties use fixed seeds.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import block_diag

from qpzk.core import (
    MixedState,
    PureState,
    RegisterLayout,
    fidelity,
    gentle_post_state,
    random_density,
    random_pure_state,
    rng_from,
    trace_distance,
)
from qpzk.core.linalg import half_trace_norm
from qpzk.core.metrics import cq_trace_distance, max_povm_advantage_dim2
from qpzk.core.sampling import random_projector
from qpzk.errors import QubitCapExceededError, StateValidationError, ZeroProbabilityError

A = RegisterLayout.single("A", 1)
AB = RegisterLayout.of(("A", 1), ("B", 1))

KET0 = PureState.from_bits(A, "0")
KET1 = PureState.from_bits(A, "1")
PLUS = PureState(np.array([1, 1]) / np.sqrt(2), A)

# Eigenvalues of |0><0| - |+><+| are +/- sqrt(1/2), so Td = 1/sqrt(2).
TD_ZERO_PLUS = 0.7071067811865476


def _bloch_grid_advantage(a, b, grid):
    """Reference: the advantage |<v|a - b|v>| maximized over a Bloch-sphere
    grid of rank-one projectors; a lower bound on the trace distance."""
    diff = a.density() - b.density()
    best = 0.0
    for th in np.linspace(0.0, np.pi, grid):
        c, s = np.cos(th / 2), np.sin(th / 2)
        for ph in np.linspace(0.0, 2 * np.pi, grid, endpoint=False):
            v = np.array([c, np.exp(1j * ph) * s])
            best = max(best, abs(float(np.vdot(v, diff @ v).real)))
    return best


class TestTraceDistance:
    def test_self_distance_zero(self):
        rng = rng_from(1)
        rho = random_density(A, rng)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        assert trace_distance(KET0, KET1) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vs_plus_frozen_value(self):
        assert trace_distance(KET0, PLUS) == pytest.approx(TD_ZERO_PLUS, abs=1e-12)

    def test_symmetric(self):
        rng = rng_from(2)
        a, b = random_density(A, rng), random_density(A, rng)
        assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-12)

    def test_equals_max_povm_advantage_on_qubits(self):
        # Operational meaning: best two-outcome distinguishing advantage.
        rng = rng_from(3)
        for _ in range(10):
            a, b = random_density(A, rng), random_density(A, rng)
            td = trace_distance(a, b)
            eig_max = max_povm_advantage_dim2(a, b)
            grid_max = _bloch_grid_advantage(a, b, grid=120)
            assert eig_max == pytest.approx(td, abs=1e-9)
            assert grid_max <= td + 1e-9
            assert grid_max >= td - 5e-4  # grid resolution slack


class TestFidelity:
    def test_self_fidelity_one(self):
        rng = rng_from(4)
        rho = random_density(A, rng)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_zero_vs_plus_squared_overlap(self):
        assert fidelity(KET0, PLUS) == pytest.approx(0.5, abs=1e-12)

    def test_maximally_mixed_vs_zero(self):
        # Closed form on 2x2 matrices gives exactly 1/2.
        mm = MixedState.maximally_mixed(A)
        assert fidelity(mm, KET0.to_mixed()) == pytest.approx(0.5, abs=1e-9)

    def test_pure_inputs_match_overlap(self):
        rng = rng_from(5)
        for _ in range(50):
            psi, phi = random_pure_state(AB, rng), random_pure_state(AB, rng)
            want = abs(psi.overlap(phi)) ** 2
            assert fidelity(psi.to_mixed(), phi.to_mixed()) == pytest.approx(want, abs=1e-9)
            assert fidelity(psi, phi) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("qubits", [1, 2, 3])
    def test_reverse_triangle_inequality(self, qubits):
        lay = RegisterLayout.single("A", qubits)
        rng = rng_from(60 + qubits)
        for _ in range(300):
            r, s, t = (random_density(lay, rng) for _ in range(3))
            frs, fst, frt = fidelity(r, s), fidelity(s, t), fidelity(r, t)
            assert frs ** 2 + fst ** 2 <= 1.0 + frt + 1e-9


class TestGentleMeasurement:
    def test_state_in_image_is_untouched(self):
        p, post, bound = gentle_post_state(KET0.to_mixed(), np.diag([1.0, 0.0]))
        assert p == pytest.approx(1.0, abs=1e-12)
        assert bound == pytest.approx(0.0, abs=1e-6)
        assert np.allclose(post.matrix, KET0.density(), atol=1e-12)

    def test_plus_projected_to_zero(self):
        p, post, _ = gentle_post_state(PLUS.to_mixed(), np.diag([1.0, 0.0]))
        assert p == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(post.matrix, KET0.density(), atol=1e-12)

    def test_zero_probability_raises(self):
        with pytest.raises(ZeroProbabilityError):
            gentle_post_state(KET1.to_mixed(), np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("pi", [np.diag([1.0, -1.0]), np.diag([0.5, 0.5]),
                                    np.array([[1.0, 1.0], [0.0, 0.0]])])
    def test_non_projector_rejected(self, pi):
        with pytest.raises(StateValidationError, match="not an orthogonal projector"):
            gentle_post_state(PLUS.to_mixed(), pi)

    def test_bound_holds_on_random_instances(self):
        # Two-qubit states against random rank-2 projectors, p >= 1/2 slice.
        rng = rng_from(8)
        checked = 0
        while checked < 400:
            rho = random_density(AB, rng)
            pi = random_projector(4, 2, rng)
            if float(np.trace(pi @ rho.matrix).real) < 0.5:
                continue
            p, post, bound = gentle_post_state(rho, pi)
            assert trace_distance(rho, post) <= bound + 1e-9
            checked += 1


@st.composite
def _cq_view_pairs(draw):
    """Two views over one to three outcomes, each outcome with one to three
    factors of one or two qubits, and each present in one view or both."""
    rng = rng_from(draw(st.integers(0, 2 ** 16)))
    a, b = {}, {}
    for key in range(draw(st.integers(1, 3))):
        sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
        for view in draw(st.sampled_from([(a,), (b,), (a, b)])):
            factors = [random_density(RegisterLayout.single("F", n), rng) for n in sizes]
            view[key] = (draw(st.floats(0, 1)), factors)
    return a, b


def _dense_cq(view, keys, dims):
    """The block-diagonal matrix of a classical register and the blocks."""
    blocks = []
    for key in keys:
        if key in view:
            p, factors = view[key]
            block = np.eye(1)
            for f in factors:
                block = np.kron(block, f.density())
            blocks.append(p * block)
        else:
            blocks.append(np.zeros((dims[key],) * 2))
    return block_diag(*blocks)


class TestCqTraceDistance:
    @given(_cq_view_pairs())
    def test_equals_the_dense_block_diagonal_distance(self, views):
        a, b = views
        keys = [*a, *(k for k in b if k not in a)]
        dims = {k: 2 ** sum(f.n_qubits for f in (a.get(k) or b[k])[1]) for k in keys}
        want = half_trace_norm(_dense_cq(a, keys, dims) - _dense_cq(b, keys, dims))
        assert cq_trace_distance(a, b) == pytest.approx(want, abs=1e-12)

    def test_block_over_the_cap_raises_before_allocating(self, monkeypatch):
        pair = random_density(AB, rng_from(5))
        monkeypatch.setenv("QPZK_QUBIT_CAP", "3")

        def no_kron(*args):
            raise AssertionError("a block over the cap was allocated")

        monkeypatch.setattr(np, "kron", no_kron)
        with pytest.raises(QubitCapExceededError):
            cq_trace_distance({0: (1.0, [pair, pair])}, {0: (1.0, [pair, pair])})
