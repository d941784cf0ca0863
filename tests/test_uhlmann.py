"""Matching unitary, protocol execution, soundness record, ZK simulator."""

import numpy as np
import pytest

from qpzk.core import (
    MixedState,
    RegisterLayout,
    random_pure_state,
    rng_from,
    trace_distance,
)
from qpzk.errors import OracleBudgetError, StateValidationError
from qpzk.uhlmann import (
    UOracle,
    UhlmannInstance,
    bell_flip_instance,
    canonical_target,
    compute_uhlmann,
    expected_output,
    honest_prover,
    instance_from_json,
    instance_to_json,
    perturbed_prover,
    random_instance,
    real_verifier_output,
    run_uhlmann_protocol,
    soundness_check,
    round_accept_probability,
    zk_simulate_uhlmann,
)


def identity_prover(inst):
    """Prover that returns every shipped register untouched."""
    eye = np.eye(2 ** inst.s_qubits, dtype=complex)
    return lambda i: eye


def clairvoyant_prover(inst, starred_round, garbage):
    """Applies the matching unitary in every round except the one it has
    been told is the target, where it applies garbage instead. Unrealizable
    in the real game (the starred round is hidden); it shows why the
    guarantee leans on the hidden position."""
    u = compute_uhlmann(inst).matrix
    return lambda i: garbage if i == starred_round else u


class TestComputeUhlmann:
    def test_identical_preparations_give_harmless_unitary(self):
        rng = rng_from(40)
        inst = random_instance(1, 1, rng)
        same = UhlmannInstance(inst.c_unitary, inst.c_unitary, 1, 1)
        u = compute_uhlmann(same)
        mapped = (same.c_vector().reshape(2, 2) @ u.matrix.T).reshape(-1)
        assert np.linalg.norm(mapped - same.c_vector()) < 1e-9

    def test_bell_flip_instance(self):
        inst = bell_flip_instance()
        u = compute_uhlmann(inst)
        # Verify (Id x U)|C> = |D> by direct 4-vector arithmetic.
        c = inst.c_vector()
        d = inst.d_vector()
        mapped = np.kron(np.eye(2), u.matrix) @ c
        assert np.linalg.norm(mapped - d) < 1e-9
        # X itself satisfies the identity; U may differ only by phase here.
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        phase = u.matrix[0, 1]
        assert np.allclose(u.matrix, phase * x, atol=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_two_plus_two_instances(self, seed):
        inst = random_instance(2, 2, rng_from(41, seed))
        u = compute_uhlmann(inst)
        assert u.residual <= 1e-9
        assert np.allclose(u.matrix.conj().T @ u.matrix, np.eye(4), atol=1e-9)

    def test_degenerate_spectrum_handled(self):
        # Bell-pair reduction is maximally mixed: fully degenerate spectrum.
        inst = bell_flip_instance()
        assert compute_uhlmann(inst).residual <= 1e-9

    def test_mismatched_reductions_rejected(self):
        from qpzk.core.operators import H

        # |C> = |00>, |D> = |+0>: different reduced states on R.
        c = np.eye(4, dtype=complex)
        d = np.kron(H, np.eye(2, dtype=complex))
        with pytest.raises(StateValidationError):
            UhlmannInstance(c, d, 1, 1)

    def test_non_invertible_reduction_rejected(self):
        # Product preparation: rank-one reduction on R.
        c = np.eye(4, dtype=complex)
        with pytest.raises(StateValidationError):
            UhlmannInstance(c, c, 1, 1)


class TestProtocol:
    def test_honest_prover_always_accepts_with_exact_output(self):
        rng = rng_from(42)
        inst = random_instance(1, 1, rng)
        target = canonical_target(inst)
        for _ in range(20):
            result = run_uhlmann_protocol(inst, honest_prover(inst), target, rng)
            assert result.outcome == "accept"
        out = result.output.to_mixed()
        assert trace_distance(out, expected_output(inst).to_mixed()) < 1e-9

    def test_identity_prover_detection_compounds(self):
        inst = bell_flip_instance(delta=1.0)  # gamma = 8
        p_round = round_accept_probability(
            inst, np.eye(2, dtype=complex))
        # Bell pair vs flipped Bell pair are orthogonal: every test rejects.
        assert p_round == pytest.approx(0.0, abs=1e-12)
        rng = rng_from(43)
        target = canonical_target(inst)
        outcomes = [run_uhlmann_protocol(inst, identity_prover(inst), target, rng).outcome
                    for _ in range(50)]
        assert set(outcomes) == {"abort"}

    def test_partial_overlap_detection_rate(self):
        rng = rng_from(44)
        inst = random_instance(1, 1, rng, delta=1.0)
        p_round = round_accept_probability(inst, np.eye(2, dtype=complex))
        overlap = abs(np.vdot(inst.d_vector(), inst.c_vector())) ** 2
        assert p_round == pytest.approx(overlap, abs=1e-12)
        record = soundness_check(inst, identity_prover(inst))
        assert record.acceptance == pytest.approx(overlap ** (inst.gamma - 1), abs=1e-9)

    def test_round_position_invariance_for_uniform_provers(self):
        # Round-independent provers survive with the same probability no
        # matter where the hidden round lands.
        rng = rng_from(45)
        inst = random_instance(1, 1, rng)
        record = soundness_check(inst, perturbed_prover(inst, 0.3))
        assert max(record.per_round_accept) - min(record.per_round_accept) < 1e-12


class TestSoundness:
    def test_honest_record(self):
        rng = rng_from(46)
        inst = random_instance(2, 2, rng)
        record = soundness_check(inst, honest_prover(inst))
        assert record.acceptance == pytest.approx(1.0, abs=1e-12)
        target = canonical_target(inst)
        assert all(run_uhlmann_protocol(inst, honest_prover(inst), target, rng).outcome
                   == "accept" for _ in range(200))
        assert record.trace_distance == pytest.approx(0.0, abs=1e-9)
        assert record.trace_distance <= record.bound

    def test_perturbed_prover_within_bound(self):
        # delta = 2, gamma = 32: a small rotation keeps acceptance above
        # one half and the conditioned output within 1/delta.
        rng = rng_from(47)
        inst = random_instance(2, 2, rng, delta=2.0)
        assert inst.gamma == 32
        prover = perturbed_prover(inst, 0.05)
        record = soundness_check(inst, prover)
        assert record.acceptance >= 0.5
        assert record.bound == 0.5
        assert record.trace_distance <= record.bound + 1e-9
        target = canonical_target(inst)
        hits = sum(run_uhlmann_protocol(inst, prover, target, rng).outcome == "accept"
                   for _ in range(400))
        sigma = np.sqrt(record.acceptance * (1 - record.acceptance) / 400)
        assert abs(hits / 400 - record.acceptance) <= 3 * sigma + 0.01

    def test_far_instance_identity_prover_not_applicable(self):
        inst = bell_flip_instance(delta=2.0)
        record = soundness_check(inst, identity_prover(inst))
        assert record.acceptance < 0.5
        assert record.trace_distance is None

    def test_clairvoyant_prover_is_the_cautionary_tale(self):
        # Full acceptance yet garbage output: only possible with knowledge
        # of the hidden round, which the real game denies.
        rng = rng_from(49)
        inst = bell_flip_instance(delta=1.0)
        target = canonical_target(inst)
        gamma = inst.gamma
        from qpzk.core.operators import H

        garbage = H  # far from the matching unitary (which is X here)
        accept_all = 0
        distances = []
        for star in range(1, gamma + 1):
            prover = clairvoyant_prover(inst, star, garbage=garbage)
            surv = 1.0
            for i in range(1, gamma + 1):
                if i != star:
                    surv *= round_accept_probability(
                        inst, np.asarray(prover(i), dtype=complex))
            accept_all += surv
            out = run_uhlmann_protocol(
                inst, prover, target,
                _forced_star_rng(star, gamma, rng))
            if out.outcome == "accept":
                distances.append(trace_distance(
                    out.output.to_mixed(), expected_output(inst).to_mixed()))
        assert accept_all / gamma == pytest.approx(1.0, abs=1e-12)
        assert distances and min(distances) > 0.5


class TestZeroKnowledge:
    def test_simulated_view_matches_real(self):
        rng = rng_from(50)
        inst = random_instance(1, 1, rng)
        lay = RegisterLayout.of(("E", 1), ("T", 1))
        verifier_input = random_pure_state(lay, rng)
        real = real_verifier_output(inst, verifier_input)
        oracle = UOracle(inst)
        sim = zk_simulate_uhlmann(inst, verifier_input, oracle)
        assert trace_distance(real.to_mixed(), sim.to_mixed()) < 1e-9
        assert oracle.calls == 1

    def test_maximally_mixed_target_is_fixed(self):
        rng = rng_from(51)
        inst = random_instance(1, 1, rng)
        mixed = MixedState.maximally_mixed(RegisterLayout.single("T", 1))
        real = real_verifier_output(inst, mixed)
        sim = zk_simulate_uhlmann(inst, mixed)
        assert trace_distance(real, sim) < 1e-12
        assert trace_distance(real, mixed) < 1e-12

    def test_oracle_budget_is_hard(self):
        rng = rng_from(52)
        inst = random_instance(1, 1, rng)
        oracle = UOracle(inst)
        target = canonical_target(inst)
        oracle.apply(target)
        with pytest.raises(OracleBudgetError):
            oracle.apply(target)

    def test_every_simulation_uses_exactly_one_call(self):
        rng = rng_from(53)
        inst = random_instance(1, 1, rng)
        for _ in range(5):
            lay = RegisterLayout.of(("E", 1), ("T", 1))
            vin = random_pure_state(lay, rng)
            oracle = UOracle(inst)
            zk_simulate_uhlmann(inst, vin, oracle)
            assert oracle.calls == 1


class TestPersistence:
    def test_roundtrip(self):
        inst = bell_flip_instance()
        back = instance_from_json(instance_to_json(inst))
        assert back.gamma == inst.gamma
        assert np.allclose(back.c_unitary, inst.c_unitary)
        assert compute_uhlmann(back).residual <= 1e-9


def _forced_star_rng(star: int, gamma: int, base_rng):
    """rng stub whose first integer draw lands on the wanted round."""

    class Forced:
        def __init__(self):
            self._first = True

        def integers(self, low, high=None):
            if self._first:
                self._first = False
                return star
            return base_rng.integers(low, high)

        def random(self):
            return base_rng.random()

    return Forced()
