"""Copy-testing proof protocol: completeness, cheats, bound, simulator."""

import numpy as np
import pytest

from qpzk.core import MixedState, PureState, RegisterLayout, rng_from, tensor
from qpzk.core.metrics import cq_trace_distance
from qpzk.core.sampling import accept_bit
from qpzk.errors import ConfigError
from qpzk.harness.records import upper_bound_row
from qpzk import pqma
from qpzk.pqma import (
    _copy_acceptances,
    _runner,
    PqmaParams,
    PqmaProverInput,
    cheat_harness,
    exact_acceptance_product,
    hv_simulate_pqma,
    honest_shape_strategy,
    instance_check_family,
    instance_from_json,
    instance_to_json,
    orthogonal_copy_strategy,
    real_verifier_view,
    soundness_bound,
    witness_match_family,
)

V1 = RegisterLayout.single("V0", 1)


def _verdict(report) -> str:
    return upper_bound_row("cheat", report.max_empirical, report.bound,
                           report.sigma, "formula:copy-test-soundness").verdict


def per_copy(pairs) -> PqmaProverInput:
    """Product input with its own pair state for each prover copy."""
    return PqmaProverInput(pairs=tuple(pairs))


def two_copies(bits: str) -> PureState:
    return tensor(PureState.from_bits(RegisterLayout.single("V0", 1), bits[0]),
                  PureState.from_bits(RegisterLayout.single("V1", 1), bits[1]))


class TestParamsAndBound:
    def test_copy_counts_validated(self):
        with pytest.raises(ConfigError):
            PqmaParams(2, 2)
        with pytest.raises(ConfigError):
            soundness_bound(5, 0, 1)

    def test_bound_frozen_value(self):
        # sqrt(2e6 * 2 / (1e9 - 1e3)) + 0.99^1000 + 1/sqrt(50), evaluated
        # independently with plain floats.
        want = (2.0 * 1000 ** 2 * 2 / (10 ** 9 - 1000)) ** 0.5 \
            + 0.99 ** 1000 + 50 ** -0.5
        got = soundness_bound(10 ** 9, 1000, 2)
        assert got == pytest.approx(want, abs=1e-15)
        assert got == pytest.approx(0.2047, abs=5e-4)

    def test_bound_decreases_in_p(self):
        values = [soundness_bound(p, 10, 2) for p in (100, 1000, 10000, 10 ** 8)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def _scalar_runner(params, inst, prover_input):
    """Reference: executions on a product input with one scalar draw for
    every tested copy, all q of them, then the final acceptance unless a
    SWAP test failed."""
    p, q = params.prover_copies, params.verifier_copies
    swap_of, final_of = _copy_acceptances(params, inst, prover_input)

    def run(rng) -> str:
        tested = rng.choice(p, q + 1, replace=False)
        passed = [rng.random() < swap_of([s])[0] for s in tested[:q]]
        if not all(passed):
            return "abort"
        return "accept" if accept_bit(final_of(tested[q]), rng) else "reject"
    return run


class TestRunPqma:
    @pytest.mark.parametrize("strategy,p,q", [
        ("orthogonal", 3, 1), ("orthogonal", 8, 2), ("orthogonal", 2 * 10 ** 6, 300),
        ("honest", 8, 2), ("honest", 2 * 10 ** 6, 300),
        ("per-copy", 3, 1), ("per-copy", 8, 2), ("per-copy", 40, 7),
    ])
    def test_sized_swap_draws_match_the_scalar_loop(self, strategy, p, q):
        inst = instance_check_family("no")
        good = honest_shape_strategy(inst).prover_input
        ortho = orthogonal_copy_strategy(inst).prover_input
        prover_input = {
            "orthogonal": ortho,
            "honest": good,
            "per-copy": per_copy([good.pair, ortho.pair] * (p // 2) + [good.pair] * (p % 2)),
        }[strategy]
        params = PqmaParams(p, q)
        sized, scalar = rng_from(3200, p, q), rng_from(3200, p, q)
        run, reference = _runner(params, inst, prover_input), _scalar_runner(params, inst, prover_input)
        outcomes = [run(sized) for _ in range(300)]
        assert outcomes == [reference(scalar) for _ in range(300)]
        assert sized.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("strategy", ["orthogonal", "honest", "per-copy"])
    def test_acceptance_within_4_sigma_of_the_exact_value(self, strategy):
        inst = instance_check_family("no")
        good = honest_shape_strategy(inst).prover_input
        ortho = orthogonal_copy_strategy(inst).prover_input
        prover_input = {
            "orthogonal": ortho,
            "honest": good,
            "per-copy": per_copy([good.pair, ortho.pair] * 4),
        }[strategy]
        params = PqmaParams(8, 2)
        exact = exact_acceptance_product(params, inst, prover_input)
        run, rng, n = _runner(params, inst, prover_input), rng_from(3200), 4000
        hits = sum(run(rng) == "accept" for _ in range(n))
        assert abs(hits - n * exact) <= 4 * np.sqrt(n * exact * (1 - exact))

    def test_honest_perfect_completeness(self):
        params = PqmaParams(8, 2)
        inst = instance_check_family("yes")
        honest = PqmaProverInput.symmetric(inst.witness, inst.psi)
        assert exact_acceptance_product(params, inst, honest) == pytest.approx(1.0, abs=1e-12)
        run, rng = _runner(params, inst, honest), rng_from(30)
        assert all(run(rng) == "accept" for _ in range(200))

    def test_orthogonal_copies_pass_rate(self):
        # On the no instance the cheater ships the orthogonal (yes) state:
        # each SWAP test accepts with probability 1/2 and the final
        # projection then accepts, so overall acceptance is exactly 2^-q.
        params = PqmaParams(8, 2)
        inst = instance_check_family("no")
        cheat = orthogonal_copy_strategy(inst)
        exact = exact_acceptance_product(params, inst, cheat.prover_input)
        assert exact == pytest.approx(0.25, abs=1e-12)

    def test_bad_witness_exact_rejection(self):
        params = PqmaParams(6, 2)
        inst = witness_match_family()
        bad = PqmaProverInput.symmetric(
            PureState.from_bits(RegisterLayout.single("B", 1), "0"), inst.psi)
        # All SWAP tests pass; the final projection rejects with certainty.
        assert exact_acceptance_product(params, inst, bad) == pytest.approx(0.0, abs=1e-12)
        run, rng = _runner(params, inst, bad), rng_from(31)
        outcomes = {run(rng) for _ in range(100)}
        assert outcomes == {"reject"}

    def test_per_copy_permutation_symmetry(self):
        params = PqmaParams(4, 2)
        inst = instance_check_family("yes")
        good = PqmaProverInput.symmetric(inst.witness, inst.psi).pair
        cheat = orthogonal_copy_strategy(inst).prover_input.pair
        a = exact_acceptance_product(params, inst, per_copy([good, good, cheat, cheat]))
        b = exact_acceptance_product(params, inst, per_copy([cheat, good, cheat, good]))
        assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("count", [2, 9])
    def test_pair_count_must_match_prover_copies(self, count):
        params = PqmaParams(8, 2)
        inst = instance_check_family("no")
        prover_input = per_copy([honest_shape_strategy(inst).prover_input.pair] * count)
        for call in (_runner, exact_acceptance_product):
            with pytest.raises(ConfigError, match=f"{count} pair states for 8 prover copies"):
                call(params, inst, prover_input)

    @pytest.mark.parametrize("forms", [(), ("pair", "joint")])
    def test_input_holds_exactly_one_form(self, forms):
        pair = honest_shape_strategy(instance_check_family("no")).prover_input.pair
        with pytest.raises(ConfigError, match="exactly one"):
            PqmaProverInput(**{form: pair for form in forms})

    def test_entangled_mode_matches_product_on_product_input(self):
        params = PqmaParams(3, 1)
        inst = instance_check_family("yes")
        pair = tensor(inst.witness.relabel(RegisterLayout.single("B", 1)),
                      inst.psi.relabel(RegisterLayout.single("A", 1)))
        joint = pair
        for i in (1, 2):
            joint = tensor(joint.relabel(RegisterLayout.single("J", joint.n_qubits)),
                           pair.relabel(RegisterLayout.of((f"B{i}x", 1), (f"A{i}x", 1))))
        ent = PqmaProverInput(joint=joint)
        run, rng = _runner(params, inst, ent), rng_from(32)
        outs = [run(rng) for _ in range(60)]
        assert all(o == "accept" for o in outs)
        prod = PqmaProverInput.symmetric(inst.witness, inst.psi)
        assert exact_acceptance_product(params, inst, prod) == pytest.approx(1.0)


class TestSimulator:
    def test_honest_verifier_view_matches(self):
        params = PqmaParams(6, 2)
        inst = instance_check_family("yes")
        vin = two_copies("11")
        assert cq_trace_distance(real_verifier_view(params, inst, vin),
                             hv_simulate_pqma(params, inst, vin)) < 1e-9

    def test_orthogonal_verifier_copies(self):
        params = PqmaParams(6, 2)
        inst = instance_check_family("yes")
        vin = two_copies("00")
        real = real_verifier_view(params, inst, vin)
        sim = hv_simulate_pqma(params, inst, vin)
        assert cq_trace_distance(real, sim) < 1e-9
        assert sim[1][0] == pytest.approx(0.25, abs=1e-12)

    def test_entangled_verifier_input(self):
        # Verifier keeps half of a Bell pair; marginals must still agree.
        params = PqmaParams(6, 1)
        inst = instance_check_family("yes")
        bell = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2),
                         RegisterLayout.of(("V0", 1), ("E", 1)))
        real = real_verifier_view(params, inst, bell)
        sim = hv_simulate_pqma(params, inst, bell)
        assert cq_trace_distance(real, sim) < 1e-9

    def test_simulator_ignores_witness(self):
        params = PqmaParams(6, 2)
        inst_a = witness_match_family()
        inst_b = bad_witness = None
        from qpzk.pqma import PqmaInstance

        inst_b = PqmaInstance(inst_a.psi,
                              PureState.from_bits(RegisterLayout.single("B", 1), "0"),
                              inst_a.verifier_unitary, label="no")
        vin = two_copies("11")
        assert cq_trace_distance(hv_simulate_pqma(params, inst_a, vin),
                             hv_simulate_pqma(params, inst_b, vin)) < 1e-9

    def test_failure_too_unlikely_for_a_post_state(self):
        # A copy 1e-5 rad from |1> fails its SWAP test with probability about
        # 5e-11, below the cut under which a measurement leaves no
        # post-state, so both views leave that failure branch out.
        params = PqmaParams(4, 1)
        inst = instance_check_family("yes")
        vin = PureState(np.array([np.sin(1e-5), np.cos(1e-5)]), V1)
        real = real_verifier_view(params, inst, vin)
        sim = hv_simulate_pqma(params, inst, vin)
        assert cq_trace_distance(real, sim) < 1e-9
        assert list(real) == list(sim) == [1]

    def test_copy_budget_enforced(self):
        params = PqmaParams(6, 2)
        inst = instance_check_family("yes")
        with pytest.raises(ConfigError):
            hv_simulate_pqma(params, inst, two_copies("11"), simulator_copies=1)


def _walk_reference(params, inst, vin, finals):
    """Reference for both views, with the SWAP-test walk written out in
    full: failure branches per copy, then `finals(reach, state)` once every
    copy has passed; each output bit's branches are summed into one block,
    (probability, [conditional state])."""
    branches, state, reach = [], vin, 1.0
    for j in range(params.verifier_copies):
        (p_pass, passed), (p_fail, failed) = pqma._swap_branches(state, f"V{j}", inst.psi)
        if p_fail > 1e-15:
            branches.append((0, reach * p_fail, failed))
        reach *= p_pass
        state = passed
    view = {}
    for bit in (0, 1):
        parts = [(p, rho) for b, p, rho in branches + finals(reach, state.to_mixed())
                 if b == bit and p > 0]
        if parts:
            total = sum(p for p, _ in parts)
            mix = sum(p * rho.matrix for p, rho in parts) / total
            view[bit] = (total, [MixedState(mix, parts[0][1].layout)])
    return view


def _real_finals(inst):
    def finals(reach, state):
        final = inst.honest_acceptance()
        split = [(0, reach * (1.0 - final), state)] if final < 1.0 - 1e-15 else []
        return split + [(1, reach * final, state)]
    return finals


def _assert_same_branches(view, reference):
    assert list(view) == list(reference)
    for bit, (probability, [state]) in reference.items():
        got, [got_state] = view[bit]
        assert got == probability
        assert np.array_equal(got_state.matrix, state.matrix)


class TestViewWalk:
    @pytest.mark.parametrize("label,bits", [("yes", "00"), ("yes", "01"), ("no", "11")])
    def test_views_equal_the_written_out_walk(self, label, bits):
        # Copies in |0> fail the SWAP test against |1> half the time; the
        # no instance adds the real view's rejecting split.
        params = PqmaParams(6, 2)
        inst = instance_check_family(label)
        vin = two_copies(bits)
        _assert_same_branches(real_verifier_view(params, inst, vin),
                              _walk_reference(params, inst, vin, _real_finals(inst)))
        _assert_same_branches(hv_simulate_pqma(params, inst, vin),
                              _walk_reference(params, inst, vin,
                                              lambda reach, state: [(1, reach, state)]))


class TestCheatHarness:
    def test_vacuous_bound_recorded(self):
        params = PqmaParams(8, 2)
        inst = instance_check_family("no")
        report = cheat_harness(params, inst, [orthogonal_copy_strategy(inst)],
                               trials=200, rng=rng_from(33))
        assert report.bound > 1.0
        assert _verdict(report) == "VACUOUS"

    def test_informative_bound_passes(self):
        # Large copy counts push the closed form below one; every cheat then
        # lands far under it (orthogonal copies accept with rate ~2^-q).
        params = PqmaParams(2 * 10 ** 6, 300)
        inst = instance_check_family("no")
        strategies = [orthogonal_copy_strategy(inst), honest_shape_strategy(inst)]
        report = cheat_harness(params, inst, strategies, trials=60, rng=rng_from(34))
        assert report.bound <= 1.0
        assert _verdict(report) == "PASS"

    def test_counts_are_one_binomial_draw_at_the_exact_acceptance(self):
        params = PqmaParams(8, 2)
        inst = instance_check_family("no")
        cheat = orthogonal_copy_strategy(inst)
        exact = exact_acceptance_product(params, inst, cheat.prover_input)
        assert 0 < exact < 1
        report = cheat_harness(params, inst, [cheat], trials=1000, rng=rng_from(36))
        assert report.max_empirical == rng_from(36).binomial(1000, exact) / 1000

    def test_takes_only_inputs_with_an_exact_acceptance(self):
        inst = instance_check_family("no")
        pair = honest_shape_strategy(inst).prover_input.pair
        for params, prover_input, match in (
                (PqmaParams(2, 1), PqmaProverInput(joint=pair), "product input"),
                (PqmaParams(9, 1), per_copy([pair] * 9), "p <= 8")):
            with pytest.raises(ConfigError, match=match):
                cheat_harness(params, inst, [pqma.CheatStrategy("x", prover_input)],
                              trials=10, rng=rng_from(37))

    def test_sequential_repetition(self):
        params = PqmaParams(8, 2)
        inst = instance_check_family("no")
        cheat = orthogonal_copy_strategy(inst)
        rng = rng_from(35)
        n = 1000
        run = _runner(params, inst, cheat.prover_input)
        hits = sum(run(rng) == "accept" and run(rng) == "accept" for _ in range(n))
        # Two independent repetitions square the single-run acceptance 1/4.
        want = 0.25 ** 2
        sigma = np.sqrt(want * (1 - want) / n)
        assert abs(hits / n - want) <= 4 * sigma + 0.01


class TestPersistence:
    def test_instance_roundtrip(self):
        inst = witness_match_family()
        back = instance_from_json(instance_to_json(inst))
        assert back.label == "yes"
        assert np.allclose(back.verifier_unitary, inst.verifier_unitary)
        assert back.honest_acceptance() == pytest.approx(1.0)
