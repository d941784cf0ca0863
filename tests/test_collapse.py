"""Round collapse: honest equality, branch-overlap identity, soundness
bound against the prover oracle, simulator checks, standard-form cast."""

import json

import numpy as np
import pytest

from qpzk.core import PureState, RegisterLayout, rng_from, random_unitary
from qpzk.core.operators import CNOT_REVERSED, H, X
from qpzk.compilers.collapse import (
    CollapsedProtocol,
    as_three_message,
    collapsed_soundness,
    hv_simulate_collapsed,
)
from qpzk.compilers.examples import (
    copier_base,
    partial_coupler_base,
    random_perfect_base,
    rotated_copier_base,
)
from qpzk.compilers.pipeline import build_pipeline
from qpzk.core import linalg
from qpzk.cli import main
from qpzk.errors import ConfigError, ZeroProbabilityError
from qpzk.harness.config import ExperimentConfig
from qpzk.harness.experiments import run_experiment
from qpzk.harness.records import load_record
from qpzk.optimize import alternating_ascent, brute_force_prover_value
from qpzk.protocol import InteractiveProtocol, Strategy, run_protocol, save_protocol


def entangling_copier_base() -> InteractiveProtocol:
    """Copier variant whose workspace is maximally entangled with the
    message mid-protocol: the honest prover puts M into |+>, the verifier
    copies, and the final check uncopies and flips. Perfect completeness
    with a genuinely quantum intermediate state."""
    psi_v = PureState.from_bits(RegisterLayout.single("W", 1), "0")
    v1 = CNOT_REVERSED
    v2 = np.kron(X, np.eye(2, dtype=complex)) @ CNOT_REVERSED
    p1 = np.kron(np.eye(2, dtype=complex), H)
    p2 = np.eye(4, dtype=complex)
    return InteractiveProtocol(psi_v, 1, 1, [v1, v2], [p1, p2])


def never_passing_copier_base() -> InteractiveProtocol:
    """copier_base with V2 = X x I: the final check flips the copied 1 back
    to 0, so the honest prover never passes it."""
    copier = copier_base()
    psi_v = PureState.from_bits(RegisterLayout.single("W", 1), "0")
    return InteractiveProtocol(
        psi_v, 1, 1, [copier.verifier_unitaries[0], np.kron(X, np.eye(2, dtype=complex))],
        list(copier.prover_unitaries))


def random_base(seed: int) -> InteractiveProtocol:
    g = rng_from(2000, seed)
    psi_v = PureState.from_bits(RegisterLayout.single("W", 1), "0")
    return InteractiveProtocol(
        psi_v, 1, 1,
        [random_unitary(4, g), random_unitary(4, g)],
        [random_unitary(4, g), random_unitary(4, g)],
    )


def random_perfect_three_round_base(seed: int) -> InteractiveProtocol:
    """Three-round base with acceptance exactly one, built as
    random_perfect_base builds its two-round ones: random P1, V1, P2, V2,
    P3, then a V3 that rotates the reachable W M support into the
    accepting subspace (first W qubit one)."""
    g = rng_from(2500, seed)
    psi_v = PureState.from_bits(RegisterLayout.single("W", 1), "0")
    p1, v1, p2, v2, p3 = (random_unitary(4, g) for _ in range(5))
    probe = InteractiveProtocol(
        psi_v, 1, 1, [v1, v2, np.eye(4, dtype=complex)], [p1, p2, p3])
    rho_wm = linalg.partial_trace_vector(probe.evolve(upto_message=5).amplitudes, [1, 2], 3)
    _vals, vecs = np.linalg.eigh(rho_wm)
    # A one-qubit R purifies rank two at most, so the eigenvectors of the two
    # largest eigenvalues (ascending order: columns 2 and 3) span the
    # support; V3 sends column k to |k>, the support to |10> and |11>.
    v3 = vecs.conj().T
    return InteractiveProtocol(
        psi_v, 1, 1, [v1, v2, v3], [p1, p2, p3])


class TestSoundnessFormula:
    def test_perfect_base_two_rounds(self):
        assert collapsed_soundness(0.0, 2) == pytest.approx(15.0 / 16.0, abs=1e-15)

    def test_no_gap(self):
        assert collapsed_soundness(1.0, 2) == pytest.approx(1.0, abs=1e-15)

    def test_monotone_in_rounds(self):
        vals = [collapsed_soundness(0.3, r) for r in range(2, 6)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_single_round(self):
        with pytest.raises(ConfigError):
            collapsed_soundness(0.5, 1)


class TestHonestExecution:
    def test_copier_base_collapse_is_complete(self):
        col = CollapsedProtocol(copier_base())
        assert col.acceptance(col.honest_strategy()) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_honest_acceptance_equals_base_completeness(self, seed):
        # Exact equality needs a perfect-completeness base; otherwise the
        # snapshot check post-selects and disturbs the final snapshot.
        base = random_perfect_base(seed)
        col = CollapsedProtocol(base)
        want = run_protocol(base)
        assert want == pytest.approx(1.0, abs=1e-9)
        got = col.acceptance(col.honest_strategy())
        assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_three_round_collapse(self, seed):
        # The bundle order and the replies to challenges 1 and 2 of a base
        # with r = 3: honest acceptance equals the base's, and the Bell test
        # obeys the branch-overlap identity at both challenges.
        base = random_perfect_three_round_base(seed)
        col = CollapsedProtocol(base)
        want = run_protocol(base)
        assert want == pytest.approx(1.0, abs=1e-9)
        honest = col.honest_strategy()
        assert col.acceptance(honest) == pytest.approx(want, abs=1e-9)
        for challenge in (1, 2):
            measured, predicted = col.branch_overlap_identity(honest, challenge)
            assert measured == pytest.approx(predicted, abs=1e-9)

    def test_imperfect_base_acceptance_at_most_completeness(self):
        base = random_base(0)
        col = CollapsedProtocol(base)
        assert col.acceptance(col.honest_strategy()) <= run_protocol(base) + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_branch_overlap_identity(self, seed):
        base = random_base(seed)
        col = CollapsedProtocol(base)
        measured, predicted = col.branch_overlap_identity(col.honest_strategy(), 1)
        assert measured == pytest.approx(predicted, abs=1e-9)

    def test_overlap_identity_for_lazy_prover(self):
        # A prover that answers with the identity still satisfies the
        # branch-overlap identity (it holds for every unitary response).
        base = copier_base()
        col = CollapsedProtocol(base)
        honest = col.honest_strategy()
        lazy = Strategy({"U1": np.eye(honest.slots["U1"].shape[0], dtype=complex)},
                        honest.free, "lazy")
        measured, predicted = col.branch_overlap_identity(lazy, 1)
        assert measured == pytest.approx(predicted, abs=1e-9)


class TestGateListReply:
    """A reply given as a gate list is one step of the challenge run: the
    states read after the reply and after the controlled-X are those of the
    same reply made dense."""

    def test_split_reply_matches_the_dense_one(self, monkeypatch):
        col = CollapsedProtocol(partial_coupler_base(0.5, 0.7))
        dense = col.honest_strategy()
        u = dense.slots["U1"]
        eye = np.eye(2, dtype=complex)
        split = Strategy({"U1": [(u, tuple(range(u.shape[0].bit_length() - 1))),
                                 (eye, (0,)), (eye, (1,))]}, dense.free, "split")
        for got, want in zip(col.branch_overlap_identity(split, 1),
                             col.branch_overlap_identity(dense, 1)):
            assert got == pytest.approx(want, abs=1e-12)
        assert col.challenge_outcome(split, 1) == pytest.approx(
            col.challenge_outcome(dense, 1), abs=1e-12)
        want = hv_simulate_collapsed(col, col.base.honest, 1)
        monkeypatch.setattr(col, "simulator_strategy", lambda sim: split)
        got = hv_simulate_collapsed(col, col.base.honest, 1)
        assert got.bell_pair_fidelity == pytest.approx(want.bell_pair_fidelity, abs=1e-12)
        assert got.bell_check_probability == pytest.approx(want.bell_check_probability,
                                                           abs=1e-12)


class TestSoundnessBoundAgainstOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_cheat_value_below_bound(self, seed):
        base = random_base(seed)
        zeta = brute_force_prover_value(base, rng_from(2100, seed),
                                        restarts=6, iters=100)
        bound = collapsed_soundness(min(zeta, 1.0), 2)
        col = CollapsedProtocol(base)
        res = alternating_ascent(col.ascent_problem(private_qubits=2),
                                 rng_from(2200, seed), restarts=6, iters=100)
        assert res.value <= bound + 1e-6

    def test_garbage_bundle_below_bound(self):
        # A prover shipping an unentangled random bundle and idling on the
        # challenge stays below the closed-form value, empirically too.
        from qpzk.core.sampling import random_amplitudes

        base = copier_base()
        col = CollapsedProtocol(base)
        honest = col.honest_strategy()
        rng = rng_from(2350)
        garbage = Strategy({"U1": np.eye(honest.slots["U1"].shape[0], dtype=complex)},
                           random_amplitudes(honest.free.shape[0], rng), "garbage-bundle")
        zeta = brute_force_prover_value(base, rng_from(2351), restarts=4, iters=80)
        bound = collapsed_soundness(min(zeta, 1.0), 2)
        exact = col.acceptance(garbage)
        assert exact <= bound + 1e-9
        # Sampled acceptance agrees with the exact branch value at 3 sigma.
        n = 1500
        hits = sum(rng.random() < exact for _ in range(n))
        sigma = np.sqrt(max(exact * (1 - exact), 1e-9) / n)
        assert abs(hits / n - exact) <= 3 * sigma + 1e-9

    def test_rotated_copier_informative_bound(self):
        base = rotated_copier_base(np.pi / 3)
        zeta = brute_force_prover_value(base, rng_from(2300), restarts=6, iters=100)
        assert zeta < 1.0 - 1e-3
        bound = collapsed_soundness(zeta, 2)
        col = CollapsedProtocol(base)
        res = alternating_ascent(col.ascent_problem(private_qubits=2),
                                 rng_from(2301), restarts=6, iters=100)
        assert res.value <= bound + 1e-6


class TestSimulator:
    def test_exact_simulator_passes_bell_check(self):
        base = copier_base()
        col = CollapsedProtocol(base)
        sim = Strategy(base.honest.slots, name="honest-prover-standin")
        rep = hv_simulate_collapsed(col, sim, 1)
        assert rep.bell_check_probability == pytest.approx(1.0, abs=1e-9)
        assert rep.accept_check_probability == pytest.approx(1.0, abs=1e-9)
        assert rep.bell_pair_fidelity == pytest.approx(1.0, abs=1e-9)
        assert rep.factorization_residual < 1e-9

    def test_consistent_simulator_chain_always_factorizes(self):
        # Any self-consistent round chain whose final snapshot still lands
        # in the accepting subspace satisfies the snapshot identity, so the
        # Bell check passes even for a non-honest second round.
        base = copier_base()
        col = CollapsedProtocol(base)
        g = rng_from(2400)
        sim = Strategy({"P1": base.prover_unitaries[0], "P2": random_unitary(4, g)},
                       name="twisted-second-round")
        rep = hv_simulate_collapsed(col, sim, 1)
        assert rep.accept_check_probability == pytest.approx(1.0, abs=1e-9)
        assert rep.bell_check_probability == pytest.approx(1.0, abs=1e-9)
        assert rep.factorization_residual < 1e-9

    def test_simulator_with_an_ancilla_rejected(self):
        base = copier_base()
        col = CollapsedProtocol(base)
        wide = {k: v + ((np.eye(2), (2,)),) for k, v in base.honest.slots.items()}
        with pytest.raises(ConfigError, match="'wide': .* carry no ancilla"):
            hv_simulate_collapsed(col, Strategy(wide, name="wide"), 1)

    def test_report_runs_the_challenge_once(self, monkeypatch):
        base = copier_base()
        col = CollapsedProtocol(base)
        calls = []
        run = CollapsedProtocol._run
        monkeypatch.setattr(CollapsedProtocol, "_run",
                            lambda self, *args: calls.append(args) or run(self, *args))
        hv_simulate_collapsed(col, Strategy(base.honest.slots, name="honest-prover-standin"), 1)
        assert len(calls) == 1

    def test_inconsistent_response_fails_bell_check(self):
        # Tamper with the response only, on a base whose workspace is
        # entangled with the message mid-protocol: the bundle says one
        # chain, the reply plays another, and the Bell test sees it.
        base = entangling_copier_base()
        col = CollapsedProtocol(base)
        strat = col.simulator_strategy(Strategy(base.honest.slots, name="honest-prover-standin"))
        tampered_strat = Strategy({"U1": np.eye(strat.slots["U1"].shape[0], dtype=complex)},
                                  strat.free, "tampered")
        honest_bell = col.challenge_outcome(strat, 1)[1]
        _, p_bell, _ = col.challenge_outcome(tampered_strat, 1)
        assert honest_bell == pytest.approx(1.0, abs=1e-9)
        assert p_bell < 1.0 - 1e-3

    def test_challenge_distribution_is_uniform_by_construction(self):
        base = random_base(1)
        col = CollapsedProtocol(base)
        # acceptance averages the per-challenge values with equal weight.
        vals = [col.challenge_outcome(col.honest_strategy(), i)[2]
                for i in range(1, col.r)]
        assert col.acceptance(col.honest_strategy()) == pytest.approx(
            float(np.mean(vals)), abs=1e-12)


class TestNeverPassingBase:
    """A base whose honest prover never passes the final check leaves no
    state past the collapse's accept check."""

    def test_no_state_past_the_accept_check(self):
        col = CollapsedProtocol(never_passing_copier_base())
        honest = col.honest_strategy()
        assert col.challenge_outcome(honest, 1) == (0.0, 0.0, 0.0)
        assert col.branch_overlap_identity(honest, 1) is None
        with pytest.raises(ZeroProbabilityError):
            hv_simulate_collapsed(col, col.base.honest, 1)

    def test_run_marks_the_overlap_identity_not_applicable(self, tmp_path):
        base, cfg, out = tmp_path / "base.json", tmp_path / "cfg.json", tmp_path / "rec.json"
        save_protocol(never_passing_copier_base(), base)
        cfg.write_text(json.dumps({
            "kind": "collapse", "instances": {"base_protocol": str(base)},
            "params": {"bases": 1, "oracle_restarts": 1, "oracle_iters": 20}}))
        assert main(["collapse", "--config", str(cfg), "--out", str(out)]) == 0
        rows = {row.name: row for row in load_record(str(out)).rows}
        assert rows["honest-acceptance-vs-base-completeness"].verdict == "PASS"
        row = rows["branch-overlap-identity"]
        assert (row.verdict, row.empirical, row.reference) == ("NOT-APPLICABLE", None, None)

    def test_soundness_oracle_runs_on_the_loaded_base(self, tmp_path, monkeypatch):
        import qpzk.optimize
        import qpzk.protocol

        path = tmp_path / "base.json"
        save_protocol(never_passing_copier_base(), path)
        loaded, oracle_bases, ascent_bases = [], [], []
        load = qpzk.protocol.load_protocol
        monkeypatch.setattr(qpzk.protocol, "load_protocol",
                            lambda p: loaded.append(load(p)) or loaded[-1])
        value = qpzk.optimize.brute_force_prover_value

        def recording_value(base, *args, **kwargs):
            oracle_bases.append(base)
            return value(base, *args, **kwargs)

        problem = CollapsedProtocol.ascent_problem

        def recording_problem(self, *args):
            ascent_bases.append(self.base)
            return problem(self, *args)

        monkeypatch.setattr(qpzk.optimize, "brute_force_prover_value", recording_value)
        monkeypatch.setattr(CollapsedProtocol, "ascent_problem", recording_problem)
        run_experiment(ExperimentConfig(
            kind="collapse", seed=7, instances={"base_protocol": str(path)},
            params={"bases": 2, "oracle_restarts": 1, "oracle_iters": 20}))
        # The two built-in bases, then the loaded one: one oracle value and
        # one compiled ascent each.
        assert [b is loaded[0] for b in oracle_bases] == [False, False, True]
        assert [b is loaded[0] for b in ascent_bases] == [False, False, True]


class TestImperfectBase:
    """On a base of completeness c, every challenge's accept check passes
    with probability c and the last challenge's Bell test with (1 + c) / 2,
    so the honest collapsed acceptance is c (r - 2 + (1 + c) / 2) / (r - 1)."""

    @pytest.mark.parametrize("rounds", [2, 3, 4])
    def test_honest_acceptance_follows_the_completeness(self, rounds):
        g = rng_from(2500, rounds)
        psi_v = PureState.from_bits(RegisterLayout.single("W", 1), "0")
        base = InteractiveProtocol(
            psi_v, 1, 1, [random_unitary(4, g) for _ in range(rounds)],
            [random_unitary(4, g) for _ in range(rounds)])
        c = run_protocol(base)
        col = CollapsedProtocol(base)
        assert c < 0.99
        assert col.acceptance(col.honest_strategy()) == pytest.approx(
            c * (rounds - 2 + (1 + c) / 2) / (rounds - 1), abs=1e-12)

    def test_run_on_a_loaded_imperfect_base_passes(self, tmp_path):
        base, cfg, out = tmp_path / "base.json", tmp_path / "cfg.json", tmp_path / "rec.json"
        save_protocol(rotated_copier_base(0.8), base)
        cfg.write_text(json.dumps({
            "kind": "collapse", "instances": {"base_protocol": str(base)},
            "params": {"bases": 1, "oracle_restarts": 1, "oracle_iters": 20}}))
        assert main(["collapse", "--config", str(cfg), "--out", str(out)]) == 0
        row = {row.name: row for row in load_record(str(out)).rows}[
            "honest-acceptance-vs-base-completeness"]
        c = run_protocol(rotated_copier_base(0.8))
        assert row.verdict == "PASS"
        assert row.reference == pytest.approx(c * (1 + c) / 2, abs=1e-12)
        assert row.reference < c - 0.05


class TestStandardFormCast:
    @pytest.mark.parametrize("seed", range(3))
    def test_cast_matches_native_acceptance(self, seed):
        base = random_base(seed)
        col = CollapsedProtocol(base)
        cast = as_three_message(col)
        assert run_protocol(cast) == pytest.approx(
            col.acceptance(col.honest_strategy()), abs=1e-9)

    def test_cast_register_shape(self):
        cast = as_three_message(CollapsedProtocol(copier_base()))
        assert cast.rounds == 2
        assert cast.layout.total_qubits == 12

    @pytest.mark.parametrize("base", [copier_base, lambda: partial_coupler_base(0.5, 0.3)],
                             ids=["copier", "partial-coupler"])
    def test_dense_cast_rounds_are_unitary(self, base):
        cast = as_three_message(CollapsedProtocol(base()))
        assert all(len(gates) > 1 for gates in cast.verifier_rounds)
        for mat in cast.verifier_unitaries + cast.prover_unitaries:
            assert linalg.is_unitary(mat)

    def test_two_qubit_message_cast_at_the_cap(self):
        """copier_base with an idle second message qubit: 14 qubits, with
        no dense 2^12 x 2^12 verifier matrix built."""
        copier = copier_base()
        eye2 = np.eye(2, dtype=complex)
        psi_v = PureState.from_bits(RegisterLayout.single("W", 1), "0")
        base = InteractiveProtocol(
            psi_v, 1, 2, [np.kron(v, eye2) for v in copier.verifier_unitaries],
            [np.kron(p, eye2) for p in copier.prover_unitaries])
        pc = build_pipeline(base)
        cast = pc.base
        assert cast.layout.total_qubits == 14
        honest = pc.honest_strategy()
        assert pc.acceptance(honest) == pytest.approx(1.0, abs=1e-9)
        assert "verifier_unitaries" not in vars(cast)
