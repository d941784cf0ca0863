"""Ideal functionality sessions, commitments, double-opening game, trap MAC."""

import numpy as np
import pytest

from qpzk.core import (
    MixedState,
    PureState,
    RegisterLayout,
    random_pure_state,
    rng_from,
    trace_distance,
)
from qpzk.core.operators import X
from qpzk.crypto.commitments import (
    Adversary,
    DoubleOpenGame,
    aborting_adversary,
    bell_ancilla_scheme,
    commit,
    double_open_win_rate,
    identity_scheme,
    layered_cnot_scheme,
    random_guess_adversary,
    read_swap_target_adversary,
    run_double_open,
    scheme_from_json,
    scheme_to_json,
    tamper_and_read_adversary,
    verify_open,
)
from qpzk.crypto.ideal import (
    IdealSession,
    ideal_compute,
    ideal_compute_classical,
    identity_functionality,
    xor_coin_functionality,
)
from qpzk.crypto.mac import QuantumMac, mac_real_vs_ideal, natural_simulator
from qpzk.errors import RegisterError, StateValidationError

MSG1 = RegisterLayout.single("Msg", 1)


@pytest.fixture(scope="module")
def mac():
    return QuantumMac(message_qubits=1, traps=3)


class TestIdealCompute:
    def test_xor_coin_both_receive_xor(self):
        session = IdealSession(xor_coin_functionality())
        out_p, out_v, abort = ideal_compute_classical(session, 0, 1, rng_from(0))
        assert (out_p, out_v, abort) == (1, 1, 0)

    def test_identity_functionality_returns_inputs(self):
        rng = rng_from(7)
        a = random_pure_state(RegisterLayout.single("A", 1), rng)
        b = random_pure_state(RegisterLayout.single("B", 1), rng)
        session = IdealSession(identity_functionality(1, 1))
        out_a, out_b, abort = ideal_compute(session, a, b)
        assert abort == 0
        assert np.allclose(out_a.matrix, a.density(), atol=1e-12)
        assert np.allclose(out_b.matrix, b.density(), atol=1e-12)

    def test_corrupted_abort_flow(self):
        rng = rng_from(8)
        a = random_pure_state(RegisterLayout.single("A", 1), rng)
        b = random_pure_state(RegisterLayout.single("B", 1), rng)
        session = IdealSession(identity_functionality(1, 1), corrupted="A")
        out_a, out_b, abort = ideal_compute(session, a, b,
                                            abort_decider=lambda _out: 1)
        assert abort == 1
        assert out_b is None          # honest party gets the bottom symbol
        assert out_a is not None      # corrupted party keeps its output
        assert "abort" in session.events

    def test_honest_input_consumed_once(self):
        session = IdealSession(xor_coin_functionality())
        ideal_compute_classical(session, 0, 0, rng_from(0))
        with pytest.raises(StateValidationError):
            ideal_compute_classical(session, 0, 0, rng_from(0))

    def test_programmed_output_overrides(self):
        session = IdealSession(xor_coin_functionality(), corrupted="B")
        session.program(0)
        out_a, out_b, _ = ideal_compute_classical(session, 1, 0, rng_from(0))
        assert out_b == 0   # programmed
        assert out_a == 1   # real computation for the honest side


class TestCommitments:
    def test_trivial_scheme_commitment_is_message(self):
        m = PureState.from_bits(MSG1, "1")
        cd = commit(identity_scheme(1), m)
        assert np.allclose(cd.amplitudes, m.amplitudes)

    def test_commit_verify_roundtrip(self):
        rng = rng_from(9)
        scheme = layered_cnot_scheme()
        for _ in range(10):
            m = random_pure_state(RegisterLayout.single("Msg", 2), rng)
            p, recovered = verify_open(scheme, commit(scheme, m))
            assert p == pytest.approx(1.0, abs=1e-12)
            assert trace_distance(recovered, m.to_mixed()) < 1e-9

    def test_layered_cnot_against_hand_built_matrix(self):
        # Wires (m0, m1, a): CNOT m0->a then CNOT m1->m0, built here from
        # explicit 8x8 permutation action on basis states.
        want = np.zeros((8, 8), dtype=complex)
        for m0 in (0, 1):
            for m1 in (0, 1):
                for a in (0, 1):
                    src = (m0 << 2) | (m1 << 1) | a
                    a2 = a ^ m0
                    m0b = m0 ^ m1
                    dst = (m0b << 2) | (m1 << 1) | a2
                    want[dst, src] = 1.0
        scheme = layered_cnot_scheme()
        assert np.allclose(scheme.com, want)
        m = PureState.from_bits(RegisterLayout.single("Msg", 2), "11")
        cd = commit(scheme, m)
        # |11,0> -> m0^=m1 after a^=m0: basis |1,1,1> -> CNOT m1->m0 -> |0,1,1>,
        # then reorder wires to (C=(m0,a), D=(m1,)): |0,1, 1>.
        expect = np.zeros(8, dtype=complex)
        expect[int("011", 2)] = 1.0
        assert np.allclose(cd.amplitudes, expect)

    def test_maximally_mixed_accept_probability(self):
        scheme = layered_cnot_scheme()
        mixed = MixedState.maximally_mixed(RegisterLayout.single("CD", 3))
        p, _ = verify_open(scheme, mixed)
        assert p == pytest.approx(0.5, abs=1e-12)  # 2^-lambda_c with one ancilla

    def test_flipped_ancilla_rejected_under_identity_com(self):
        # One message qubit plus one ancilla wire, Com = Id: flipping the
        # ancilla makes the zero check fail with certainty.
        from qpzk.crypto.commitments import CanonicalCommitment

        scheme = CanonicalCommitment("id-anc", 1, 1, np.eye(4, dtype=complex),
                                     c_wires=(0,), d_wires=(1,))
        m = PureState.from_bits(MSG1, "0")
        cd = commit(scheme, m)
        flipped = cd.relabel(RegisterLayout.of(("C", 1), ("D", 1)))
        from qpzk.core import apply_unitary
        from qpzk.core.operators import UnitaryOp

        flipped = apply_unitary(flipped, UnitaryOp(X, ("D",)))
        p, _ = verify_open(scheme, flipped)
        assert p == pytest.approx(0.0, abs=1e-12)

    def test_scheme_json_roundtrip(self):
        scheme = bell_ancilla_scheme()
        back = scheme_from_json(scheme_to_json(scheme))
        assert np.allclose(back.com, scheme.com)
        assert back.c_wires == scheme.c_wires

    def test_role_swap_duality(self):
        scheme = bell_ancilla_scheme()
        dual = scheme.swapped()
        assert dual.role_swapped
        assert dual.c_wires == scheme.d_wires


def _win_rate_given_completion(game: DoubleOpenGame) -> float:
    """Probability, read from the game's tree, that the guess equals b once
    both checks have passed."""
    weight = total = 0.0
    for b in (0, 1):
        if not game.p_second[b]:
            continue
        if game.adversary.reads_swap_target:
            p_zero = game.mprime_marginal[b][0]
            hit = p_zero if b == 0 else 1 - p_zero
        else:
            hit = 0.5
        weight += game.p_second[b]
        total += game.p_second[b] * hit
    return total / weight


class TestDoubleOpenGame:
    def test_random_guess_wins_half(self):
        scheme = bell_ancilla_scheme()
        rng = rng_from(10)
        rate, aborts = double_open_win_rate(
            scheme, random_guess_adversary(scheme), 2000, rng)
        sigma = np.sqrt(0.25 / 2000)
        assert aborts == 0
        assert abs(rate - 0.5) <= 3 * sigma

    def test_identity_scheme_is_broken(self):
        scheme = identity_scheme(1)
        rng = rng_from(11)
        rate, aborts = double_open_win_rate(
            scheme, tamper_and_read_adversary(scheme), 2000, rng)
        assert aborts == 0
        assert rate > 0.6

    def test_bell_scheme_hides_the_branch(self):
        # Branch-independent pre-final view: reading adversaries sit at 1/2.
        scheme = bell_ancilla_scheme()
        rng = rng_from(12)
        rate, aborts = double_open_win_rate(
            scheme, read_swap_target_adversary(scheme), 2000, rng)
        sigma = np.sqrt(0.25 / 2000)
        assert aborts == 0
        assert abs(rate - 0.5) <= 3 * sigma

    def test_bell_scheme_detects_tampering(self):
        scheme = bell_ancilla_scheme()
        rng = rng_from(13)
        rate, aborts = double_open_win_rate(
            scheme, tamper_and_read_adversary(scheme), 200, rng)
        assert aborts == 200
        assert rate == 0.0

    def test_abort_path(self):
        scheme = bell_ancilla_scheme()
        game = DoubleOpenGame(scheme, aborting_adversary(scheme))
        rec = run_double_open(game, rng_from(14))
        assert rec.aborted
        assert not rec.win

    # (rate, aborts) over 500 trials and the next draw after them: any change
    # to which draws a game makes, or in what order, moves these.
    @pytest.mark.parametrize("case,scheme,adversary,rate,aborts,next_draw", [
        (0, bell_ancilla_scheme, random_guess_adversary, 0.494, 0, 0.15652933679342473),
        (1, bell_ancilla_scheme, read_swap_target_adversary, 0.514, 0, 0.09940886033539231),
        (2, bell_ancilla_scheme, tamper_and_read_adversary, 0.0, 500, 0.9278953961476065),
        (3, bell_ancilla_scheme, aborting_adversary, 0.0, 500, 0.11339986820561043),
        (4, identity_scheme, tamper_and_read_adversary, 1.0, 0, 0.6094996912297993),
        (5, layered_cnot_scheme, random_guess_adversary, 0.49, 0, 0.8559423107735968),
        (6, layered_cnot_scheme, read_swap_target_adversary, 0.542, 0, 0.28447714765855947),
    ])
    def test_stream_pinned(self, case, scheme, adversary, rate, aborts, next_draw):
        scheme = scheme()
        rng = rng_from(2026, case)
        assert double_open_win_rate(scheme, adversary(scheme), 500, rng) == (rate, aborts)
        assert rng.random() == next_draw


# A 0/0 normalisation of an unreachable node would warn; make that fail.
@pytest.mark.filterwarnings("error")
class TestExactWinRates:
    @pytest.mark.parametrize("adversary", [random_guess_adversary,
                                           read_swap_target_adversary])
    def test_bell_scheme_hides_the_branch_exactly(self, adversary):
        scheme = bell_ancilla_scheme()
        game = DoubleOpenGame(scheme, adversary(scheme))
        # Both checks always pass; 1/sqrt(2) squared leaves 4e-16 of rounding.
        assert game.p_open == pytest.approx(1.0, abs=1e-15)
        assert game.p_second == pytest.approx([1.0, 1.0], abs=1e-15)
        assert _win_rate_given_completion(game) == 0.5

    def test_identity_scheme_is_broken_exactly(self):
        scheme = identity_scheme(1)
        game = DoubleOpenGame(scheme, tamper_and_read_adversary(scheme))
        assert (game.p_open, game.p_second) == (1.0, [1.0, 1.0])
        assert _win_rate_given_completion(game) == 1.0

    def test_bell_scheme_rejects_every_tampered_second_opening(self):
        scheme = bell_ancilla_scheme()
        game = DoubleOpenGame(scheme, tamper_and_read_adversary(scheme))
        assert game.p_second == [0.0, 0.0]
        assert game.mprime_marginal == [None, None]

    @pytest.mark.parametrize("scheme", [bell_ancilla_scheme, identity_scheme,
                                        layered_cnot_scheme])
    def test_aborting_adversary_always_aborts(self, scheme):
        scheme = scheme()
        game = DoubleOpenGame(scheme, aborting_adversary(scheme))
        rng = rng_from(15)
        assert all(run_double_open(game, rng).aborted for _ in range(50))


class TestAdversaryChecks:
    def test_non_unitary_gate_rejected_at_construction(self):
        adversary = Adversary(((2 * X, (0,)),), (), reads_swap_target=False)
        with pytest.raises(StateValidationError, match="adversary operation must be unitary"):
            DoubleOpenGame(bell_ancilla_scheme(), adversary)

    # bell-ancilla: C = (0, 1), D = (2,), M' = (3,), adversary ancilla 4.
    @pytest.mark.parametrize("prepare,respond,message", [
        (((X, (3,)),), (), r"prepare gate acts on wires \[3\]; "
                            r"it holds only wires \[0, 1, 2, 4\] then"),
        ((), ((X, (0,)),), r"respond gate acts on wires \[0\]; "
                            r"it holds only wires \[2, 4\] then"),
        ((), ((X, (5,)),), r"respond gate acts on wires \[5\]"),
    ], ids=["prepare-on-swap-target", "respond-on-c-wire", "respond-out-of-range"])
    def test_gate_on_a_wire_not_held_rejected_at_construction(self, prepare, respond,
                                                              message):
        adversary = Adversary(prepare, respond, reads_swap_target=False, ancilla_qubits=1)
        with pytest.raises(RegisterError, match=message):
            DoubleOpenGame(bell_ancilla_scheme(), adversary)

    def test_gates_on_held_wires_accepted(self):
        scheme = bell_ancilla_scheme()
        honest = random_guess_adversary(scheme)
        adversary = Adversary(honest.prepare + ((X, (4,)),), ((X, (2,)), (X, (4,))),
                              reads_swap_target=False, ancilla_qubits=1)
        game = DoubleOpenGame(scheme, adversary)
        assert game.p_open == pytest.approx(1.0, abs=1e-15)


class TestTrapMac:
    def test_roundtrip_exact_for_all_keys(self, mac):
        rng = rng_from(15)
        m = random_pure_state(MSG1, rng)
        for key in mac.keys[:: max(1, len(mac.keys) // 128)]:
            p, post = mac.decode(key, mac.encode(key, m))
            assert p == pytest.approx(1.0, abs=1e-12)
            assert trace_distance(post, m.to_mixed()) < 1e-9

    def test_roundtrip_every_key_flag_one(self, mac):
        # Exact correctness clause over the full key set for one message.
        m = PureState.from_bits(MSG1, "1")
        for key in mac.keys:
            p, post = mac.decode(key, mac.encode(key, m))
            assert p == pytest.approx(1.0, abs=1e-12)

    def test_single_wire_x_attack_detected_three_quarters(self, mac):
        attack = np.kron(X, np.eye(8, dtype=complex))
        det = mac.detection_probability(attack)
        # The flipped wire hides among message + traps uniformly, so the
        # exact average over the permutation keys is traps / wires.
        assert det == pytest.approx(0.75, abs=1e-12)

    def test_identity_attack_perfectly_simulated(self, mac):
        rng = rng_from(16)
        rho = random_pure_state(RegisterLayout.of(("M", 1), ("R", 1)), rng).to_mixed()
        dist = mac_real_vs_ideal(
            mac, np.eye(32, dtype=complex), rho,
            [np.eye(2, dtype=complex)], [], r_qubits=1)
        assert dist < 1e-9

    def test_trap_flipping_attack_with_natural_simulator(self, mac):
        # X on every code wire always trips a trap; the natural simulator
        # reproduces the resulting always-reject channel exactly.
        rng = rng_from(17)
        rho = random_pure_state(RegisterLayout.of(("M", 1), ("R", 1)), rng).to_mixed()
        x_all = np.kron(np.kron(X, X), np.kron(X, X))
        acc, rej = natural_simulator(mac, x_all, r_qubits=1)
        dist = mac_real_vs_ideal(mac, np.kron(x_all, np.eye(2, dtype=complex)),
                                 rho, acc, rej, r_qubits=1)
        assert dist <= 0.05

    def test_wrong_simulator_shows_detection_gap(self, mac):
        rng = rng_from(18)
        rho = random_pure_state(RegisterLayout.of(("M", 1), ("R", 1)), rng).to_mixed()
        attack = np.kron(np.kron(X, np.eye(8, dtype=complex)),
                         np.eye(2, dtype=complex))
        dist = mac_real_vs_ideal(mac, attack, rho,
                                 [np.eye(2, dtype=complex)], [], r_qubits=1)
        assert dist > 0.7  # close to the 3/4 detection probability

    def test_decode_sampled_flag(self, mac):
        rng = rng_from(19)
        m = PureState.from_bits(MSG1, "0")
        key = mac.keys[5]
        post, flag = mac.decode_sampled(key, mac.encode(key, m), rng)
        assert flag == 1
        assert trace_distance(post, m.to_mixed()) < 1e-9
