"""Principal-angle closed form vs the alternating-ascent prover oracle."""

import numpy as np
import pytest

from qpzk.core import PureState, RegisterLayout, random_pure_state, random_unitary, rng_from
from qpzk.core.operators import X
from qpzk.errors import ConfigError
from qpzk.optimize import (
    AscentProblem,
    Branch,
    SlotStep,
    brute_force_prover_value,
    optimal_three_message_value,
    three_message_protocol,
)
from qpzk.protocol import HONEST, InteractiveProtocol, run_protocol

W1 = RegisterLayout.single("W", 1)


class TestClosedForm:
    def test_identical_subspaces_give_one(self):
        # V1 = Id, V2 = X on W: accepting subspace becomes |0>_W x Id, and
        # psi_v = |0> makes the reachable subspace identical to it.
        v1 = np.eye(4, dtype=complex)
        v2 = np.kron(X, np.eye(2))
        psi_v = PureState.from_bits(W1, "0")
        assert optimal_three_message_value(v1, v2, psi_v, 1) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vs_plus_overlap(self):
        # Accepting |0>_W against reachable |+>_W x Id: squared overlap 1/2.
        v1 = np.eye(4, dtype=complex)
        v2 = np.kron(X, np.eye(2))
        plus = PureState(np.array([1, 1]) / np.sqrt(2), W1)
        assert optimal_three_message_value(v1, v2, plus, 1) == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_subspaces_give_zero(self):
        v = np.eye(4, dtype=complex)
        psi_v = PureState.from_bits(W1, "0")
        assert optimal_three_message_value(v, v, psi_v, 1) == pytest.approx(0.0, abs=1e-12)


class TestAscentProblem:
    @pytest.mark.parametrize("branches", [
        (Branch(1.0, (SlotStep("U", (0,)), SlotStep("U", (1,)))),),
        (Branch(0.5, (SlotStep("U", (0,)),)), Branch(0.5, (SlotStep("U", (0,)),))),
    ], ids=["repeated-within-a-branch", "shared-by-two-branches"])
    def test_slot_in_two_steps_rejected(self, branches):
        with pytest.raises(ConfigError, match="more than one step"):
            AscentProblem(2, branches)


class TestBruteForce:
    def test_unconditional_acceptance_found_immediately(self):
        v1 = np.kron(X, np.eye(2))
        prot = InteractiveProtocol.from_verifier_start(
            PureState.from_bits(W1, "0"), 1, 1, [v1], [np.eye(4)]
        )
        val = brute_force_prover_value(prot, rng_from(1), iters=1, restarts=1)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_honest_value_is_a_lower_bound(self):
        rng = rng_from(2)
        for seed in range(5):
            gen = rng_from(80, seed)
            prot = InteractiveProtocol.from_verifier_start(
                PureState.from_bits(W1, "0"), 1, 1,
                [random_unitary(4, gen), random_unitary(4, gen)],
                [random_unitary(4, gen), random_unitary(4, gen)],
            )
            honest = run_protocol(prot, HONEST)
            val = brute_force_prover_value(prot, rng, restarts=2, iters=40)
            assert val >= honest - 1e-9

    def test_restart_monotonicity(self):
        gen = rng_from(81)
        prot = three_message_protocol(random_unitary(4, gen), random_unitary(4, gen),
                                      PureState.from_bits(W1, "0"), 1)
        few = brute_force_prover_value(prot, rng_from(82), restarts=1, iters=60)
        more = brute_force_prover_value(prot, rng_from(82), restarts=6, iters=60)
        assert more >= few - 1e-12

    def test_rejects_many_rounds(self):
        v = np.eye(4, dtype=complex)
        prot = InteractiveProtocol.from_verifier_start(
            PureState.from_bits(W1, "0"), 1, 1, [v] * 4, [v] * 4
        )
        with pytest.raises(ConfigError):
            brute_force_prover_value(prot, rng_from(0))


class TestCrossCheck:
    """The committed-state game value equals the principal-angle formula; an
    unrestricted final move can only do better."""

    @pytest.mark.parametrize("w_qubits,m_qubits", [(1, 1), (2, 1)])
    def test_frozen_final_move_matches_closed_form(self, w_qubits, m_qubits):
        dim = 2 ** (w_qubits + m_qubits)
        for seed in range(8):
            gen = rng_from(90, w_qubits, seed)
            v1, v2 = random_unitary(dim, gen), random_unitary(dim, gen)
            psi_v = random_pure_state(RegisterLayout.single("W", w_qubits), gen)
            closed = optimal_three_message_value(v1, v2, psi_v, m_qubits)
            prot = three_message_protocol(v1, v2, psi_v, m_qubits)
            oracle = brute_force_prover_value(
                prot, rng_from(91, w_qubits, seed), restarts=6, iters=120,
                final_move_frozen=True,
            )
            assert oracle == pytest.approx(closed, abs=1e-6)

    def test_unrestricted_prover_dominates_closed_form(self):
        exceeded = False
        for seed in range(4):
            gen = rng_from(92, seed)
            v1, v2 = random_unitary(4, gen), random_unitary(4, gen)
            psi_v = PureState.from_bits(W1, "0")
            closed = optimal_three_message_value(v1, v2, psi_v, 1)
            prot = three_message_protocol(v1, v2, psi_v, 1)
            free = brute_force_prover_value(prot, rng_from(93, seed), restarts=6, iters=120)
            assert free >= closed - 1e-6
            if free > closed + 1e-3:
                exceeded = True
        # The final prover move is genuinely worth something on generic
        # single-qubit instances; this pins the documented convention.
        assert exceeded
