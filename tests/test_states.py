"""Register layouts, state types, tensor, partial trace, unitaries, measurement."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qpzk.core import (
    MixedState,
    ProjectiveMeasurement,
    PureState,
    RegisterLayout,
    UnitaryOp,
    apply_unitary,
    measure,
    partial_trace,
    random_density,
    random_pure_state,
    random_unitary,
    rng_from,
    tensor,
)
from qpzk.core.operators import H, P0, P1, X, projector_onto
from qpzk.errors import (
    DimensionMismatchError,
    QubitCapExceededError,
    RegisterError,
    StateValidationError,
)

A = RegisterLayout.single("A", 1)
B = RegisterLayout.single("B", 1)


def bell_pair(layout=None):
    layout = layout or RegisterLayout.of(("A", 1), ("B", 1))
    return PureState(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2), layout)


class TestLayout:
    def test_duplicate_names_rejected(self):
        with pytest.raises(RegisterError):
            RegisterLayout.of(("A", 1), ("A", 2))

    def test_cap_enforced(self):
        with pytest.raises(QubitCapExceededError):
            RegisterLayout.single("big", 15)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("QPZK_QUBIT_CAP", "4")
        with pytest.raises(QubitCapExceededError):
            RegisterLayout.single("big", 5)
        RegisterLayout.single("ok", 4)

    def test_qubit_positions(self):
        lay = RegisterLayout.of(("R", 2), ("W", 1), ("M", 2))
        assert lay.qubits_of("R") == [0, 1]
        assert lay.qubits_of("W") == [2]
        assert lay.qubits_of_all(["M", "W"]) == [3, 4, 2]
        with pytest.raises(RegisterError):
            lay.qubits_of("Q")


class TestStateInvariants:
    def test_pure_norm_checked(self):
        with pytest.raises(StateValidationError):
            PureState(np.array([1.0, 1.0]), A)

    def test_mixed_psd_checked(self):
        bad = np.array([[1.5, 0], [0, -0.5]], dtype=complex)
        with pytest.raises(StateValidationError):
            MixedState(bad, A)

    def test_mixed_trace_checked(self):
        with pytest.raises(StateValidationError):
            MixedState(np.eye(2, dtype=complex), A)

    def test_states_immutable(self):
        s = PureState.computational(A)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0


class TestTensor:
    def test_basis_states(self):
        s = tensor(PureState.from_bits(A, "0"), PureState.from_bits(B, "1"))
        assert np.allclose(s.amplitudes, [0, 1, 0, 0])

    def test_plus_plus_uniform(self):
        plus = PureState(np.array([1, 1]) / np.sqrt(2), A)
        s = tensor(plus, plus.relabel(B))
        assert np.allclose(s.amplitudes, [0.5, 0.5, 0.5, 0.5])

    def test_trace_preserved(self):
        rng = rng_from(3)
        rho = MixedState(np.eye(2, dtype=complex) / 2, A)
        psi = random_pure_state(B, rng)
        joint = tensor(rho, psi.to_mixed())
        assert abs(joint.trace() - 1.0) < 1e-12

    def test_name_collision(self):
        with pytest.raises(RegisterError):
            tensor(PureState.computational(A), PureState.computational(A))


class TestPartialTrace:
    def test_bell_reduces_to_maximally_mixed(self):
        red = partial_trace(bell_pair(), "B")
        assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_state_factor(self):
        rng = rng_from(5)
        rho = tensor(PureState.from_bits(A, "0").to_mixed(),
                     random_pure_state(B, rng).to_mixed())
        red = partial_trace(rho, "B")
        assert np.allclose(red.matrix, P0, atol=1e-12)

    def test_random_three_qubit_reductions_valid(self):
        rng = rng_from(11)
        lay = RegisterLayout.of(("P", 1), ("Q", 1), ("R", 1))
        for _ in range(25):
            s = random_pure_state(lay, rng)
            for drop in (["P", "Q"], ["P", "R"], ["Q", "R"]):
                red = partial_trace(s, drop)
                vals = np.linalg.eigvalsh(red.matrix)
                assert vals.min() > -1e-9
                assert abs(red.trace() - 1.0) < 1e-9

    def test_partial_trace_after_tensor_recovers_factor(self):
        rng = rng_from(13)
        for _ in range(20):
            a = random_pure_state(A, rng)
            b = random_pure_state(B, rng)
            joint = tensor(a, b)
            assert np.allclose(partial_trace(joint, "B").matrix, a.density(), atol=1e-9)
            assert np.allclose(partial_trace(joint, "A").matrix, b.density(), atol=1e-9)

    def test_unknown_register(self):
        with pytest.raises(RegisterError):
            partial_trace(bell_pair(), "Z")


class TestApplyUnitary:
    def test_x_flips(self):
        out = apply_unitary(PureState.from_bits(A, "0"), UnitaryOp(X, ("A",)))
        assert np.allclose(out.amplitudes, [0, 1])

    def test_h_makes_plus(self):
        out = apply_unitary(PureState.from_bits(A, "0"), UnitaryOp(H, ("A",)))
        assert np.allclose(out.amplitudes, [1, 1] / np.sqrt(2))

    def test_unitarity_roundtrip(self):
        rng = rng_from(17)
        lay = RegisterLayout.of(("P", 2), ("Q", 1))
        for _ in range(10):
            s = random_pure_state(lay, rng)
            u = UnitaryOp(random_unitary(4, rng), ("P",))
            back = apply_unitary(apply_unitary(s, u), UnitaryOp(u.matrix.conj().T, u.acts_on))
            assert np.allclose(back.amplitudes, s.amplitudes, atol=1e-9)

    def test_acts_on_register_order(self):
        # CNOT with control Q, target P via acts_on ordering.
        from qpzk.core.operators import CNOT

        lay = RegisterLayout.of(("P", 1), ("Q", 1))
        s = PureState.from_bits(lay, "01")  # P=0, Q=1
        out = apply_unitary(s, UnitaryOp(CNOT, ("Q", "P")))
        assert np.allclose(out.amplitudes, PureState.from_bits(lay, "11").amplitudes)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_unitary(PureState.computational(A), UnitaryOp(np.eye(4), ("A",)))


class TestMeasure:
    COMP = ProjectiveMeasurement((P0, P1))

    def test_plus_is_uniform(self):
        plus = PureState(np.array([1, 1]) / np.sqrt(2), A)
        outcomes = measure(plus, self.COMP)
        assert outcomes[0].probability == pytest.approx(0.5, abs=1e-12)
        assert outcomes[1].probability == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(outcomes[0].post.amplitudes, [1, 0])

    def test_zero_branch_has_no_post_state(self):
        outcomes = measure(PureState.from_bits(A, "0"), self.COMP)
        assert outcomes[0].probability == pytest.approx(1.0)
        assert outcomes[1].probability == pytest.approx(0.0)
        assert outcomes[1].post is None

    def test_bell_stabilizer_projection(self):
        bell = bell_pair()
        pi = projector_onto([1, 0, 0, 0]) + projector_onto([0, 0, 0, 1])
        meas = ProjectiveMeasurement((np.eye(4, dtype=complex) - pi, pi))
        outcomes = measure(bell, meas)
        assert outcomes[1].probability == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(outcomes[1].post.amplitudes, bell.amplitudes)
        assert outcomes[0].post is None

    def test_probabilities_sum_to_one(self):
        rng = rng_from(23)
        lay = RegisterLayout.of(("P", 1), ("Q", 1))
        for _ in range(10):
            s = random_pure_state(lay, rng)
            outcomes = measure(s, self.COMP, acts_on=("Q",))
            assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-9)


# -- computed states: property tests ----------------------------------------------


@st.composite
def checked_states(draw, names="PQR"):
    """A checked random state, pure or mixed, on one to three registers of one
    or two qubits; a random order of its register names; and a generator for
    the operation's arrays."""
    sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=len(names)))
    layout = RegisterLayout.of(*zip(names, sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    state = random_pure_state(layout, rng)
    if draw(st.booleans()):
        state = MixedState(random_density(layout, rng).matrix, layout)
    return state, list(draw(st.permutations(layout.names))), rng


def _recheck(state):
    """Rebuild a state through its checking constructor, which raises unless
    it is a valid state on its layout."""
    if isinstance(state, PureState):
        return PureState(state.amplitudes, state.layout)
    return MixedState(state.matrix, state.layout)


class TestComputedStatesPassTheChecks:
    """The kernels build their results without the constructors' checks;
    on checked inputs those results pass them."""

    @given(checked_states(), checked_states(names="XYZ"))
    def test_tensor(self, a, b):
        _recheck(tensor(a[0], b[0]))

    @given(checked_states(), st.data())
    def test_partial_trace(self, case, data):
        state, order, _ = case
        drop = order[:data.draw(st.integers(0, len(order) - 1))]
        if drop:
            _recheck(partial_trace(state, drop))

    @given(checked_states(), st.data())
    def test_apply_unitary(self, case, data):
        state, order, rng = case
        acts = order[:data.draw(st.integers(1, len(order)))]
        u = random_unitary(2 ** sum(state.layout.size_of(n) for n in acts), rng)
        _recheck(apply_unitary(state, UnitaryOp(u, acts)))

    @given(checked_states(), st.data())
    def test_measure(self, case, data):
        state, order, rng = case
        acts = order[:data.draw(st.integers(1, len(order)))]
        dim = 2 ** sum(state.layout.size_of(n) for n in acts)
        u = random_unitary(dim, rng)
        rank = data.draw(st.integers(1, dim - 1))
        meas = ProjectiveMeasurement((u[:, :rank] @ u[:, :rank].conj().T,
                                      u[:, rank:] @ u[:, rank:].conj().T))
        outcomes = measure(state, meas, acts)
        assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-9)
        for outcome in outcomes:
            if outcome.post is not None:
                _recheck(outcome.post)
