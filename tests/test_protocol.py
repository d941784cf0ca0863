"""Interactive protocol runner, verifier views, sampling, persistence."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qpzk.core import (PureState, RegisterLayout, linalg, random_pure_state, random_unitary,
                       rng_from)
from qpzk.core.operators import X
from qpzk.errors import ConfigError, DimensionMismatchError, StateValidationError
from qpzk.protocol import (
    InteractiveProtocol,
    Strategy,
    protocol_from_json,
    protocol_to_json,
    run_protocol,
    sample_run,
    verifier_view,
)


def ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def cnot_control_m_target_w() -> np.ndarray:
    # Basis order |w m>: 00->00, 01->11, 10->10, 11->01.
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = out[3, 1] = out[2, 2] = out[1, 3] = 1.0
    return out


PSI0 = PureState.from_bits(RegisterLayout.single("W", 1), "0")


def writer_protocol() -> InteractiveProtocol:
    # Final verifier unitary writes |1> into W unconditionally.
    v1 = np.kron(X, np.eye(2))
    return InteractiveProtocol.from_verifier_start(PSI0, 1, 1, [v1], [np.eye(4)])


def copier_protocol() -> InteractiveProtocol:
    # Verifier copies M into W; the honest prover must set M = |1> first.
    v1 = cnot_control_m_target_w()
    p1 = np.kron(np.eye(2), X)  # X on M, identity on R
    return InteractiveProtocol.from_verifier_start(PSI0, 1, 1, [v1], [p1])


class TestRunProtocol:
    def test_unconditional_writer_accepts(self):
        assert run_protocol(writer_protocol()) == pytest.approx(1.0, abs=1e-12)

    def test_idle_prover_never_accepted_by_copier(self):
        idle = Strategy({"P1": np.eye(4, dtype=complex)})
        prot = copier_protocol()
        assert run_protocol(prot, idle) == pytest.approx(0.0, abs=1e-12)
        assert run_protocol(prot, prot.honest) == pytest.approx(1.0, abs=1e-12)

    def test_toy_protocol_hand_computed(self):
        # One round, R = W = M = 1 qubit, psi_init = |000>.
        # P1 rotates M to (sqrt3/2)|0> + (1/2)|1>; V1 copies M into W with a
        # CNOT and then rotates W by the same angle. Tracking the four
        # amplitudes by hand gives the final state
        #   (3/4)|00> + (sqrt3/4)|10> - (1/4)|01> + (sqrt3/4)|11>   (W, M)
        # so P(W = 1) = 3/16 + 3/16 = 3/8.
        p1 = np.kron(np.eye(2), ry(np.pi / 3))
        v1 = np.kron(ry(np.pi / 3), np.eye(2)) @ cnot_control_m_target_w()
        prot = InteractiveProtocol.from_verifier_start(PSI0, 1, 1, [v1], [p1])
        assert run_protocol(prot) == pytest.approx(3.0 / 8.0, abs=1e-12)

    def test_value_in_unit_interval(self):
        from qpzk.core import random_unitary

        rng = rng_from(71)
        for _ in range(10):
            prot = InteractiveProtocol.from_verifier_start(
                PSI0, 1, 1, [random_unitary(4, rng)], [random_unitary(4, rng)]
            )
            strat = Strategy({"P1": random_unitary(4, rng)})
            val = run_protocol(prot, strat)
            assert -1e-12 <= val <= 1 + 1e-12

    def test_strategy_register_violation(self):
        with pytest.raises(StateValidationError):
            Strategy({"P1": np.ones((4, 4))})

    @pytest.mark.parametrize("count", [1, 3])
    def test_strategy_round_count_must_match(self, count):
        # A short strategy would run out of rounds mid-run and a long one
        # would be cut short; both fail where the strategy meets the protocol.
        from qpzk.compilers.examples import copier_base

        strat = Strategy({f"P{i + 1}": np.eye(4) for i in range(count)}, name="short-or-long")
        with pytest.raises(ConfigError, match=r"'short-or-long' has slots .* takes \['P1', 'P2'\]"):
            run_protocol(copier_base(), strat)
        with pytest.raises(ConfigError):
            verifier_view(copier_base(), strat, 1)

    @pytest.mark.parametrize("slot", [2 * np.eye(4), [(np.eye(4), (0, 1)), (2 * np.eye(2), (1,))]],
                             ids=["matrix", "gate-list"])
    def test_non_unitary_slot_rejected_naming_the_strategy(self, slot):
        with pytest.raises(StateValidationError, match="strategy 'doubled' slot P1"):
            Strategy({"P1": slot, "P2": np.eye(4)}, name="doubled")

    @pytest.mark.parametrize("free", [np.ones(4), np.zeros(4), np.full(4, np.nan)],
                             ids=["norm-two", "zero", "nan"])
    def test_free_part_not_a_unit_vector_rejected(self, free):
        with pytest.raises(StateValidationError, match="strategy 'long-free': .* not 1"):
            Strategy({}, free, "long-free")

    def test_free_part_rejected_by_a_fixed_start(self):
        prot = copier_protocol()
        strat = Strategy(prot.honest.slots, np.ones(2) / np.sqrt(2), "with-free")
        with pytest.raises(DimensionMismatchError, match="'with-free': the run's start is fixed"):
            run_protocol(prot, strat)

    @pytest.mark.parametrize("width", [1, 3])
    def test_matrix_on_other_than_the_prover_wires_rejected(self, width):
        # A 2x2 matrix cannot act on (R, M); an 8x8 one declares an ancilla
        # that the other slot's 4x4 matrix then does not act on.
        from qpzk.compilers.examples import copier_base

        strat = Strategy({"P1": np.eye(2 ** width), "P2": np.eye(4)}, name="misfit")
        with pytest.raises(DimensionMismatchError, match="'misfit': slot P"):
            run_protocol(copier_base(), strat)

    def test_gate_list_slot_acts_on_its_local_wires(self):
        # X on local wire 1 of (R, M) is the honest copier move.
        prot = copier_protocol()
        assert run_protocol(prot, Strategy({"P1": [(X, (1,))]})) == pytest.approx(1.0, abs=1e-12)
        assert run_protocol(prot, Strategy({"P1": [(X, (0,))]})) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("k", [-3, -1, 5, 9])
    def test_message_index_outside_the_run_rejected(self, k):
        from qpzk.compilers.examples import copier_base

        with pytest.raises(ConfigError, match=r"upto_message .* outside 0\.\.4"):
            copier_base().evolve(upto_message=k)

    def test_every_message_index_of_the_run_accepted(self):
        from qpzk.compilers.examples import copier_base

        base = copier_base()
        states = [base.evolve(upto_message=k).amplitudes for k in range(5)]
        assert np.array_equal(states[0], base.initial.amplitudes)
        assert np.array_equal(states[4], base.evolve().amplitudes)


class TestVerifierView:
    def test_identity_prover_first_view_is_initial_reduction(self):
        idle = Strategy({"P1": np.eye(4, dtype=complex)})
        prot = copier_protocol()
        view = verifier_view(prot, idle, 1)
        from qpzk.core import partial_trace

        want = partial_trace(prot.initial, "R")
        assert np.allclose(view.matrix, want.matrix, atol=1e-12)

    def test_views_are_valid_densities(self):
        from qpzk.core import random_unitary

        rng = rng_from(73)
        prot = InteractiveProtocol.from_verifier_start(
            PSI0, 1, 1,
            [random_unitary(4, rng), random_unitary(4, rng)],
            [random_unitary(4, rng), random_unitary(4, rng)],
        )
        for i in range(1, prot.messages + 1):
            view = verifier_view(prot, prot.honest, i)
            assert abs(view.trace() - 1.0) < 1e-9
            # Purity Tr(rho^2) is at most 1.
            assert np.trace(view.matrix @ view.matrix).real <= 1 + 1e-9

    def test_index_out_of_range(self):
        with pytest.raises(ConfigError):
            verifier_view(copier_protocol(), None, 2)


class TestSampleRun:
    def test_deterministic_protocol_matches_exact(self):
        rng = rng_from(74)
        for _ in range(20):
            prot = writer_protocol()
            outcome, transcript = sample_run(prot, prot.honest, (), rng)
            assert outcome == 1
            assert len(transcript) == 1

    def test_fixed_seed_replays_transcript(self):
        prot = copier_protocol()
        out1 = sample_run(prot, prot.honest, (), rng_from(75))
        out2 = sample_run(prot, prot.honest, (), rng_from(75))
        assert out1[0] == out2[0]
        for a, b in zip(out1[1], out2[1]):
            assert np.array_equal(a.matrix, b.matrix)

    def test_mean_converges_to_exact(self):
        p1 = np.kron(np.eye(2), ry(np.pi / 3))
        v1 = np.kron(ry(np.pi / 3), np.eye(2)) @ cnot_control_m_target_w()
        prot = InteractiveProtocol.from_verifier_start(PSI0, 1, 1, [v1], [p1])
        exact = run_protocol(prot)
        rng = rng_from(76)
        n = 4000
        hits = sum(sample_run(prot, prot.honest, (), rng)[0] for _ in range(n))
        sigma = np.sqrt(exact * (1 - exact) / n)
        assert abs(hits / n - exact) <= 3 * sigma + 1e-9

    def test_coin_schedule_must_be_empty(self):
        with pytest.raises(ConfigError):
            sample_run(writer_protocol(), None, (0,), rng_from(0))


class TestPersistence:
    def test_json_roundtrip(self, tmp_path):
        from qpzk.protocol import load_protocol, save_protocol

        prot = copier_protocol()
        path = tmp_path / "protocol.json"
        save_protocol(prot, path)
        back = load_protocol(path)
        assert back.rounds == prot.rounds
        assert np.allclose(back.initial.amplitudes, prot.initial.amplitudes)
        assert np.allclose(back.verifier_unitaries[0], prot.verifier_unitaries[0])
        assert run_protocol(back) == pytest.approx(run_protocol(prot), abs=1e-12)

    def test_bad_round_count_rejected(self):
        data = protocol_to_json(copier_protocol())
        data["rounds"] = 2
        with pytest.raises(ConfigError):
            protocol_from_json(data)


# -- rounds as gate lists ---------------------------------------------------------


SEEDS = st.integers(0, 2 ** 32 - 1)


@st.composite
def gate_protocols(draw):
    """(r, w, m, rounds, seed): registers with r + w + m <= 6 and, per round,
    a verifier and a prover list of (wire count, seed) gates."""
    w = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5 - w))
    r = draw(st.integers(1, 6 - w - m))

    def gate_list(n):
        size = draw(st.integers(0, 3))
        return [(draw(st.permutations(range(n)))[:draw(st.integers(1, min(n, 3)))],
                 draw(SEEDS)) for _ in range(size)]

    rounds = [(gate_list(w + m), gate_list(r + m)) for _ in range(draw(st.integers(1, 3)))]
    return r, w, m, rounds, draw(SEEDS)


def _gates(spec) -> list:
    return [(random_unitary(2 ** len(wires), np.random.default_rng(seed)), list(wires))
            for wires, seed in spec]


class TestGateRounds:
    @given(gate_protocols())
    def test_gate_lists_match_their_dense_products(self, case):
        r, w, m, rounds, seed = case
        vs = [_gates(v) for v, _ in rounds]
        ps = [_gates(p) for _, p in rounds]
        psi_v = random_pure_state(RegisterLayout.single("W", w), np.random.default_rng(seed))
        gated = InteractiveProtocol.from_verifier_start(psi_v, r, m, vs, ps)
        dense = InteractiveProtocol.from_verifier_start(
            psi_v, r, m, [linalg.gate_product(v, w + m) for v in vs],
            [linalg.gate_product(p, r + m) for p in ps])
        for upto in range(1, 2 * len(rounds) + 1):
            np.testing.assert_allclose(gated.evolve(upto_message=upto).amplitudes,
                                       dense.evolve(upto_message=upto).amplitudes,
                                       rtol=0, atol=1e-12)
        assert run_protocol(gated) == pytest.approx(run_protocol(dense), abs=1e-12)
        for got, want in zip(gated.verifier_unitaries + gated.prover_unitaries,
                             dense.verifier_unitaries + dense.prover_unitaries):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("side", ["verifier", "prover"])
    def test_non_unitary_gate_rejected(self, side):
        rounds = {"verifier": [[(X, [1])]], "prover": [[(X, [0])]]}
        rounds[side] = [[(X, [0]), (np.ones((2, 2)), [1])]]
        with pytest.raises(StateValidationError, match=f"{side} unitary is not unitary"):
            InteractiveProtocol.from_verifier_start(PSI0, 1, 1, rounds["verifier"],
                                                    rounds["prover"])

    @pytest.mark.parametrize("side", ["verifier", "prover"])
    @pytest.mark.parametrize("wires,message", [
        ([2], "target qubits (2,) outside 0..1"),
        ([-1], "target qubits (-1,) outside 0..1"),
        ([1, 1], "repeated target qubits (1, 1)"),
    ], ids=["past-the-end", "negative", "repeated"])
    def test_bad_gate_wires_rejected(self, side, wires, message):
        rounds = {"verifier": [[(X, [1])]], "prover": [[(X, [0])]]}
        op = X if len(wires) == 1 else np.eye(4)
        rounds[side] = [[(op, wires)]]
        with pytest.raises(DimensionMismatchError) as err:
            InteractiveProtocol.from_verifier_start(PSI0, 1, 1, rounds["verifier"],
                                                    rounds["prover"])
        assert str(err.value) == message

    def test_dense_round_shape_still_checked(self):
        with pytest.raises(DimensionMismatchError, match="verifier unitary must act on W M"):
            InteractiveProtocol.from_verifier_start(PSI0, 1, 1, [np.eye(2)], [np.eye(4)])

    def test_dense_views_are_read_only_and_built_on_demand(self):
        v1 = cnot_control_m_target_w()
        prot = InteractiveProtocol.from_verifier_start(
            PSI0, 1, 1, [v1, [(X, [0]), (X, [1])]], [np.eye(4), [(X, [1])]])
        assert prot.rounds == 2
        assert "verifier_unitaries" not in vars(prot)
        vs = prot.verifier_unitaries
        assert vs[0] is prot.verifier_rounds[0][0][0]
        assert np.array_equal(vs[0], v1) and vs[0] is not v1
        assert np.array_equal(vs[1], np.kron(X, X))
        assert np.array_equal(prot.prover_unitaries[1], np.kron(np.eye(2), X))
        for mat in vs + prot.prover_unitaries:
            assert not mat.flags.writeable
        assert v1.flags.writeable

    def test_honest_rounds_leave_the_ancilla_untouched(self):
        # The honest gate list plus an identity on local wires 2 and 3 of
        # the slot: a two-qubit ancilla that nothing else touches.
        prot = copier_protocol()
        strat = Strategy({"P1": prot.honest.slots["P1"] + ((np.eye(4), (2, 3)),)})
        with_anc = prot.evolve(strat)
        want = np.kron(prot.evolve().amplitudes, linalg.basis_vector(0, 4))
        np.testing.assert_allclose(with_anc.amplitudes, want, rtol=0, atol=1e-15)
