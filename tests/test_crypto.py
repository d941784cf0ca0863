"""Commitments, double-opening game, trap MAC."""

import dataclasses
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpzk.core import (
    PureState,
    RegisterLayout,
    linalg,
    random_density,
    random_pure_state,
    random_unitary,
    rng_from,
    trace_distance,
)
from qpzk.core.operators import P0, P1, X, Z
from qpzk.core.sampling import accept_bit
from qpzk.crypto.commitments import (
    Adversary,
    CanonicalCommitment,
    DoubleOpenGame,
    bell_ancilla_scheme,
    double_open_win_rate,
    identity_scheme,
    layered_cnot_scheme,
    outcome_probabilities,
    random_guess_adversary,
    read_swap_target_adversary,
    run_double_open,
    scheme_from_json,
    scheme_to_json,
    tamper_and_read_adversary,
)
from qpzk.crypto.mac import (
    QuantumMac,
    _conjugate,
    mac_real_vs_ideal,
    natural_simulator,
)
from qpzk.errors import ConfigError, RegisterError, StateValidationError

MSG1 = RegisterLayout.single("Msg", 1)


def aborting_adversary(scheme: CanonicalCommitment) -> Adversary:
    """Commits honestly to |0...0>, then walks away when asked for the
    second opening."""
    return dataclasses.replace(random_guess_adversary(scheme), respond=None)


@pytest.fixture(scope="module")
def mac():
    return QuantumMac(message_qubits=1, traps=3)


def _pass_probability_dense(scheme: CanonicalCommitment, rho: np.ndarray) -> float:
    """Tr(Pi_0 com^dagger rho com) for rho on the commitment wires in
    (message, ancilla) order, Pi_0 projecting the ancillas onto zero."""
    zeros = np.zeros((2 ** scheme.ancilla_qubits,) * 2, dtype=complex)
    zeros[0, 0] = 1.0
    pi0 = np.kron(np.eye(2 ** scheme.message_qubits), zeros)
    return float(np.trace(pi0 @ scheme.com.conj().T @ rho @ scheme.com).real)


@st.composite
def _schemes(draw):
    """A built-in scheme, or a Haar-random com with a random C/D split."""
    builtin = draw(st.sampled_from([None, identity_scheme, bell_ancilla_scheme,
                                    layered_cnot_scheme]))
    if builtin is not None:
        return builtin()
    m = draw(st.integers(0, 2))
    a = draw(st.integers(0 if m else 1, 2))
    com = random_unitary(2 ** (m + a), rng_from(draw(st.integers(0, 2 ** 16))))
    wires = draw(st.permutations(range(m + a)))
    split = draw(st.integers(0, m + a))
    return CanonicalCommitment("random", m, a, com, c_wires=tuple(sorted(wires[:split])),
                               d_wires=tuple(sorted(wires[split:])))


class TestCommitments:
    @settings(max_examples=150, deadline=None)
    @given(scheme=_schemes(), extra=st.integers(0, 1), columns=st.integers(0, 3),
           data=st.data())
    def test_open_on_pass_probability_equals_dense_formula(self, scheme, extra,
                                                           columns, data):
        # A pure input (columns = 0) or a mixed one as a column block V with
        # rho = V V^dagger, on commitment wires placed anywhere in a larger
        # register.
        n = scheme.total_wires + extra
        wires = data.draw(st.permutations(range(n)))[:scheme.total_wires]
        rng = rng_from(data.draw(st.integers(0, 2 ** 16)))
        shape = (2 ** n,) + ((columns,) if columns else ())
        vec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        vec /= np.linalg.norm(vec)
        block = vec.reshape(2 ** n, -1)
        rho = linalg.partial_trace_matrix(block @ block.conj().T, wires, n)
        p = float(np.linalg.norm(scheme.open_on(vec, wires, n)) ** 2)
        assert p == pytest.approx(_pass_probability_dense(scheme, rho), abs=1e-12)

    def test_trivial_scheme_commitment_is_message(self):
        m = PureState.from_bits(MSG1, "1").amplitudes
        assert np.allclose(identity_scheme(1).commit_on(m, [0], 1), m)

    def test_commit_verify_roundtrip(self):
        # Message on wires (3, 1), ancilla on wire 0, a spectator on wire 2.
        rng = rng_from(9)
        scheme = layered_cnot_scheme()
        wires = [3, 1, 0]
        for _ in range(10):
            m = random_pure_state(RegisterLayout.single("Msg", 2), rng).amplitudes
            spectator = random_pure_state(MSG1, rng).amplitudes
            start = linalg.permute_vector(
                np.kron(np.kron(m, [1, 0]), spectator), [2, 1, 3, 0], 4)
            opened = scheme.open_on(scheme.commit_on(start, wires, 4), wires, 4)
            assert np.linalg.norm(opened) ** 2 == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(opened, start, atol=1e-12)

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
        start = np.zeros(8, dtype=complex)
        start[int("110", 2)] = 1.0
        # |11,0> -> a^=m0: |1,1,1> -> m0^=m1: |0,1,1>.
        expect = np.zeros(8, dtype=complex)
        expect[int("011", 2)] = 1.0
        assert np.allclose(scheme.commit_on(start, [0, 1, 2], 3), expect)

    def test_maximally_mixed_accept_probability(self):
        # The maximally mixed state on three wires as a column block.
        scheme = layered_cnot_scheme()
        block = np.eye(8, dtype=complex) / np.sqrt(8)
        p = np.linalg.norm(scheme.open_on(block, [0, 1, 2], 3)) ** 2
        assert p == pytest.approx(0.5, abs=1e-12)  # 2^-lambda_c with one ancilla

    def test_flipped_ancilla_rejected_under_identity_com(self):
        # One message qubit plus one ancilla wire, Com = Id: flipping the
        # ancilla makes the zero check fail with certainty.
        scheme = CanonicalCommitment("id-anc", 1, 1, np.eye(4, dtype=complex),
                                     c_wires=(0,), d_wires=(1,))
        committed = scheme.commit_on(linalg.basis_vector(0, 4), [0, 1], 2)
        flipped = linalg.apply_to_vector(X, committed, list(scheme.d_wires), 2)
        assert np.linalg.norm(scheme.open_on(flipped, [0, 1], 2)) == 0.0

    def test_scheme_json_roundtrip(self):
        scheme = bell_ancilla_scheme()
        data = scheme_to_json(scheme)
        back = scheme_from_json(data)
        assert np.allclose(back.com, scheme.com)
        assert back.c_wires == scheme.c_wires
        # Older files carry a role_swapped key; c_wires and d_wires alone
        # say which register is which, so it is ignored.
        old = scheme_from_json({**data, "role_swapped": True})
        assert (old.c_wires, old.d_wires) == (scheme.c_wires, scheme.d_wires)


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
        assert run_double_open(game, 1, rng_from(14)) == (0, 1)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        scheme = bell_ancilla_scheme()
        with pytest.raises(ConfigError, match="at least one trial"):
            double_open_win_rate(scheme, random_guess_adversary(scheme), trials, rng_from(14))

    # (rate, aborts) over 500 trials and the next draw after them, on stream
    # version 2: any change to which draws a game makes moves these.
    @pytest.mark.parametrize("case,scheme,adversary,rate,aborts,next_draw", [
        (0, bell_ancilla_scheme, random_guess_adversary, 0.526, 0, 0.5266818260948598),
        (1, bell_ancilla_scheme, read_swap_target_adversary, 0.46, 0, 0.9485368412361052),
        (2, bell_ancilla_scheme, tamper_and_read_adversary, 0.0, 500, 0.5508442104534835),
        (3, bell_ancilla_scheme, aborting_adversary, 0.0, 500, 0.7433341197823008),
        (4, identity_scheme, tamper_and_read_adversary, 1.0, 0, 0.5412689571343062),
        (5, layered_cnot_scheme, random_guess_adversary, 0.518, 0, 0.33280393554021725),
        (6, layered_cnot_scheme, read_swap_target_adversary, 0.516, 0, 0.4220660804431311),
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
        assert run_double_open(game, 50, rng_from(15)) == (0, 50)


# Check probabilities: certain, nearly certain either way, and fractional.
_PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 1e-6, 5e-4, 2e-3, 0.998, 1 - 5e-4, 1 - 1e-6, 1 - 4e-16, 1.0]),
    st.floats(0.0, 1.0))
# M' marginals over one or two qubits, point masses and spread.
_MARGINALS = st.lists(st.sampled_from([0.0, 0.0, 0.2, 1.0, 3.0]), min_size=2, max_size=4) \
    .filter(lambda w: len(w) != 3 and sum(w) > 0) \
    .map(lambda w: np.array(w) / sum(w))


@st.composite
def _games(draw):
    """Stand-ins for DoubleOpenGame: the tree's values and an adversary."""
    kind = draw(st.sampled_from(["aborts", "guesses", "reads"]))
    p_open = draw(_PROBABILITIES)
    p_second = [draw(_PROBABILITIES)] * 2
    if draw(st.booleans()):
        p_second[1] = draw(_PROBABILITIES)  # may differ by b
    return SimpleNamespace(
        p_open=p_open,
        p_second=[None, None] if kind == "aborts" else p_second,
        mprime_marginal=[draw(_MARGINALS), draw(_MARGINALS)] if kind == "reads" else [None, None],
        adversary=Adversary((), None if kind == "aborts" else (), kind == "reads"))


def _enumerated_outcomes(game) -> list[float]:
    """[win, lose, abort] summed over every leaf of the game's tree: the
    first check, b, the second check, then each guess or each M' outcome."""
    win, lose, abort = range(3)
    leaves = [0.0, 0.0, 1.0 - game.p_open]
    for b in (0, 1):
        reach = game.p_open / 2
        if game.adversary.respond is None:
            leaves[abort] += reach
            continue
        leaves[abort] += reach * (1.0 - game.p_second[b])
        if game.adversary.reads_swap_target:
            # The guess is 1 unless M' reads all-zero.
            guesses = [(int(m != 0), p) for m, p in enumerate(game.mprime_marginal[b])]
        else:
            guesses = [(0, 0.5), (1, 0.5)]
        for guess, p in guesses:
            leaves[win if guess == b else lose] += reach * game.p_second[b] * p
    return leaves


def _within_4_sigma(counts, probabilities, trials: int) -> bool:
    counts, probabilities = np.asarray(counts), np.asarray(probabilities)
    sigma = np.sqrt(trials * probabilities * (1.0 - probabilities))
    return bool(np.all(np.abs(counts - trials * probabilities) <= 4.0 * sigma))


class TestOutcomeProbabilities:
    @given(game=_games())
    def test_leaves_sum_to_one_and_match_the_enumerated_tree(self, game):
        leaves = outcome_probabilities(game)
        assert leaves.shape == (3,)
        assert np.all(leaves >= 0.0)
        assert leaves.sum() == pytest.approx(1.0, abs=1e-12)
        assert leaves.tolist() == pytest.approx(_enumerated_outcomes(game), abs=1e-12)

    @pytest.mark.parametrize("scheme,adversary,win_rate", [
        (bell_ancilla_scheme, random_guess_adversary, 0.5),
        (bell_ancilla_scheme, read_swap_target_adversary, 0.5),
        (identity_scheme, random_guess_adversary, 0.5),
        (identity_scheme, read_swap_target_adversary, 0.5),
        (layered_cnot_scheme, random_guess_adversary, 0.5),
        (layered_cnot_scheme, read_swap_target_adversary, 0.5),
        (identity_scheme, tamper_and_read_adversary, 1.0),
    ])
    def test_completing_builtin_games_match_the_tree(self, scheme, adversary, win_rate):
        scheme = scheme()
        game = DoubleOpenGame(scheme, adversary(scheme))
        win, lose, abort = outcome_probabilities(game)
        assert abort == pytest.approx(0.0, abs=1e-15)
        assert win / (win + lose) == pytest.approx(_win_rate_given_completion(game), abs=1e-15)
        assert win / (win + lose) == pytest.approx(win_rate, abs=1e-15)

    @pytest.mark.parametrize("scheme,adversary", [
        (bell_ancilla_scheme, aborting_adversary),
        (identity_scheme, aborting_adversary),
        (layered_cnot_scheme, aborting_adversary),
        (bell_ancilla_scheme, tamper_and_read_adversary),
        (layered_cnot_scheme, tamper_and_read_adversary),
    ])
    def test_aborting_and_tampering_builtin_games_always_abort(self, scheme, adversary):
        scheme = scheme()
        game = DoubleOpenGame(scheme, adversary(scheme))
        assert outcome_probabilities(game).tolist() == [0.0, 0.0, 1.0]

    @pytest.mark.parametrize("adversary", [random_guess_adversary, read_swap_target_adversary,
                                           tamper_and_read_adversary, aborting_adversary])
    @pytest.mark.parametrize("scheme", [bell_ancilla_scheme, identity_scheme,
                                        layered_cnot_scheme])
    def test_counts_within_4_sigma_of_the_exact_values(self, scheme, adversary):
        scheme = scheme()
        game = DoubleOpenGame(scheme, adversary(scheme))
        trials = 10 ** 5
        wins, aborts = run_double_open(game, trials, rng_from(2028))
        assert _within_4_sigma([wins, trials - wins - aborts, aborts],
                               outcome_probabilities(game), trials)


def _scalar_double_open(game, trials: int, rng) -> tuple[int, int]:
    """Reference: the game's tree walked once per trial with scalar draws."""
    respond = game.adversary.respond is not None
    wins = aborts = 0
    for _ in range(trials):
        if not accept_bit(game.p_open, rng):
            aborts += 1
            continue
        b = int(rng.integers(2))
        if not respond or not accept_bit(game.p_second[b], rng):
            aborts += 1
            continue
        if game.adversary.reads_swap_target:
            marginal = game.mprime_marginal[b]
            guess = 1 if rng.choice(len(marginal), p=marginal) != 0 else 0
        else:
            guess = int(rng.integers(2))
        wins += guess == b
    return wins, aborts


def _same_distribution(game, trials: int, *key: int) -> bool:
    """run_double_open and the scalar loop, on independent streams, give
    [win, lose, abort] counts that differ by at most 4 sigma of each
    difference; an outcome of probability 0 or 1 must count the same."""
    counts = []
    for stream, play in enumerate([run_double_open, _scalar_double_open]):
        wins, aborts = play(game, trials, rng_from(*key, stream))
        counts.append([wins, trials - wins - aborts, aborts])
    p = outcome_probabilities(game)
    sigma = np.sqrt(2 * trials * p * (1.0 - p))
    return bool(np.all(np.abs(np.subtract(*counts)) <= 4.0 * sigma))


class TestBlockDraws:
    """run_double_open draws a whole block of trials in one call; its counts
    follow the scalar tree walk."""

    @given(game=_games(), trials=st.sampled_from([1, 100, 3000]), seed=st.integers(0, 2 ** 32))
    def test_matches_the_scalar_loop(self, game, trials, seed):
        assert _same_distribution(game, trials, seed)

    @pytest.mark.parametrize("p_open,p_second", [
        (1 - 2 ** -10, [1.0, 1.0]),
        (1.0, [1 - 2 ** -10, 1 - 2 ** -10]),
        (2 ** -10, [1.0, 1.0]),
    ])
    @pytest.mark.parametrize("reads", [False, True])
    def test_blocks_cut_at_rare_outcomes_match_the_scalar_loop(self, p_open, p_second, reads):
        # About three rare outcomes per check over 3,000 trials.
        game = SimpleNamespace(p_open=p_open, p_second=p_second,
                               mprime_marginal=[np.array([0.3, 0.7]), np.array([1.0, 0.0])],
                               adversary=Adversary((), (), reads))
        for seed in range(4):
            assert _same_distribution(game, 3000, 2027, seed)

    @pytest.mark.parametrize("factory", [random_guess_adversary, read_swap_target_adversary,
                                         tamper_and_read_adversary, aborting_adversary])
    @pytest.mark.parametrize("scheme", [bell_ancilla_scheme, identity_scheme,
                                        layered_cnot_scheme])
    def test_builtin_games_match_the_scalar_loop(self, scheme, factory):
        scheme = scheme()
        assert _same_distribution(DoubleOpenGame(scheme, factory(scheme)), 2500, 2028)


class TestAdversaryChecks:
    def test_non_unitary_gate_rejected_at_construction(self):
        adversary = Adversary(((2 * X, (0,)),), (), reads_swap_target=False)
        with pytest.raises(StateValidationError, match="adversary operation is not unitary"):
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


def _kron_chain_encoding(key, wires):
    """The trap code's encoding as it was first built: the Pauli mask, a
    kron chain of Z^z X^x, after the wire permutation's unitary. Key number
    `key` is decoded by the key order: wire permutations, then X masks, then
    Z masks, each in lexicographic order."""
    bits = list(itertools.product((0, 1), repeat=wires))
    perm_rank, masks = divmod(key, 4 ** wires)
    permutation = list(itertools.permutations(range(wires)))[perm_rank]
    x_mask, z_mask = (bits[m] for m in divmod(masks, 2 ** wires))
    order = [0] * wires
    for i, p in enumerate(permutation):
        order[p] = i
    mask = np.eye(1, dtype=complex)
    for x_bit, z_bit in zip(x_mask, z_mask):
        mask = np.kron(mask, np.linalg.matrix_power(Z, z_bit) @ np.linalg.matrix_power(X, x_bit))
    return mask @ linalg.permutation_unitary(order, wires)


def _with_r(index, sign, r_qubits):
    """A key's (index, sign) times the identity on r_qubits trailing wires."""
    r = np.arange(2 ** r_qubits)
    return (index[:, None] << r_qubits | r).ravel(), np.repeat(sign, r.size)


def _enumerated_channel(mac, attack, rho_mr, r_qubits):
    """Key-averaged decode(attack(encode(rho))) on registers (M, R, F), one
    key at a time: the reference for the closed-form Pauli twirl."""
    nm, t, nr = mac.message_qubits, mac.traps, r_qubits
    n_all = nm + t + nr
    # Insert trap wires in |0> between M and R: (M, R) + T -> (M, T, R).
    trap_zero = (np.arange(2 ** n_all) >> nr) % 2 ** t == 0
    base = np.zeros((2 ** n_all, 2 ** n_all), dtype=complex)
    base[np.ix_(trap_zero, trap_zero)] = rho_mr.density()
    acc_mask = np.outer(trap_zero, trap_zero)
    keep_mr = list(range(nm)) + list(range(nm + t, n_all))
    keep_r = list(range(nm + t, n_all))
    acc_mr = rej_r = 0
    for key in mac.keys:
        conj = _conjugate(attack, *_with_r(mac.index[key], mac.sign[key], nr))
        mat = conj @ base @ conj.conj().T
        accepted = mat * acc_mask
        acc_mr += linalg.partial_trace_matrix(accepted, keep_mr, n_all)
        rej_r += linalg.partial_trace_matrix(mat - accepted, keep_r, n_all)
    mm = np.eye(2 ** nm, dtype=complex) / 2 ** nm
    total = np.kron(acc_mr, P1) + np.kron(np.kron(mm, rej_r), P0)
    return total / len(mac.keys)


def _pauli_string(pauli, wires, n):
    out = np.eye(1, dtype=complex)
    for w in range(n):
        out = np.kron(out, pauli if w in wires else np.eye(2, dtype=complex))
    return out


class TestSignedPermutationKeys:
    """Each key's encoding is a signed permutation applied by index gather."""

    @pytest.mark.parametrize("m,t", [(1, 1), (1, 2), (1, 3), (2, 2)])
    def test_encoding_equals_the_kron_chain(self, m, t):
        code = QuantumMac(m, t)
        for key in code.keys:
            assert np.array_equal(code.encode_unitary(key),
                                  _kron_chain_encoding(key, code.code_qubits))

    @pytest.mark.parametrize("m,t", [(1, 1), (1, 2), (1, 3), (2, 2)])
    @pytest.mark.parametrize("r_qubits", [0, 1])
    def test_gathered_conjugation_equals_the_dense_product(self, m, t, r_qubits):
        code = QuantumMac(m, t)
        rng = rng_from(20)
        dim = 2 ** (code.code_qubits + r_qubits)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        eye_r = np.eye(2 ** r_qubits, dtype=complex)
        for key in code.keys:
            enc = np.kron(code.encode_unitary(key), eye_r)
            gathered = _conjugate(a, *_with_r(code.index[key], code.sign[key], r_qubits))
            assert gathered.tobytes() == (enc.conj().T @ a @ enc).tobytes()

    @pytest.mark.parametrize("m,t", [(1, 3), (2, 2)])
    def test_x_attack_goes_undetected_with_the_closed_form(self, m, t):
        # The key permutation hides the w flipped wires among all n code wires
        # uniformly, and a flip is missed only if it lands on message wires.
        code = QuantumMac(m, t)
        n = code.code_qubits
        for w in range(1, n + 1):
            placements = list(itertools.combinations(range(n), w))
            for wires in {placements[0], placements[-1]}:
                det = code.detection_probability(_pauli_string(X, wires, n))
                assert 1.0 - det == pytest.approx(math.comb(m, w) / math.comb(n, w),
                                                  abs=1e-12)

    @pytest.mark.parametrize("wires", [(0,), (3,), (1, 2), (0, 1, 2, 3)])
    def test_z_attack_is_never_detected(self, mac, wires):
        det = mac.detection_probability(_pauli_string(Z, wires, mac.code_qubits))
        assert det == pytest.approx(0.0, abs=1e-12)


class TestPauliTwirl:
    """The closed-form key average equals the key-by-key enumeration."""

    @settings(max_examples=6)
    @example(code=(1, 1), r_qubits=0, pauli=False, seed=0)
    @example(code=(1, 2), r_qubits=1, pauli=True, seed=1)
    @example(code=(1, 3), r_qubits=0, pauli=True, seed=2)
    @example(code=(1, 3), r_qubits=1, pauli=False, seed=3)
    @example(code=(2, 2), r_qubits=0, pauli=False, seed=4)
    @example(code=(2, 2), r_qubits=1, pauli=True, seed=5)
    @given(code=st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 2)]),
           r_qubits=st.sampled_from([0, 1]), pauli=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_twirl_equals_the_enumeration(self, code, r_qubits, pauli, seed):
        mac = QuantumMac(*code)
        n = mac.code_qubits
        rng = rng_from(seed)
        if pauli:
            # Z^z X^x on the code wires: the key with the identity permutation.
            x, z = (int(m) for m in rng.integers(0, 2 ** n, size=2))
            attack = np.kron(_kron_chain_encoding(x * 2 ** n + z, n),
                             random_unitary(2 ** r_qubits, rng))
        else:
            attack = random_unitary(2 ** (n + r_qubits), rng)
        registers = (("M", code[0]), ("R", r_qubits)) if r_qubits else (("M", code[0]),)
        rho = random_density(RegisterLayout.of(*registers), rng)
        twirl = mac.real_channel_output(attack, rho, r_qubits)
        assert np.abs(twirl - _enumerated_channel(mac, attack, rho, r_qubits)).max() <= 1e-12

    @pytest.mark.parametrize("r_qubits", [0, 1])
    def test_trap_flip_on_every_wire_always_rejects_exactly(self, mac, r_qubits):
        # Every permutation puts an X on a trap, so the twirl gives exactly
        # the reject branch, mm x rho_R x |0><0|, with no rounding.
        rng = rng_from(19)
        registers = (("M", 1), ("R", r_qubits)) if r_qubits else (("M", 1),)
        rho = random_density(RegisterLayout.of(*registers), rng)
        attack = np.kron(_pauli_string(X, range(mac.code_qubits), mac.code_qubits),
                         np.eye(2 ** r_qubits, dtype=complex))
        rho_r = linalg.partial_trace_matrix(rho.matrix, list(range(1, 1 + r_qubits)),
                                            1 + r_qubits)
        want = np.kron(np.kron(np.eye(2, dtype=complex) / 2, rho_r), P0)
        assert np.array_equal(mac.real_channel_output(attack, rho, r_qubits), want)
