"""Acceptance suite: every headline criterion at its stated tolerance.

Each test prints one PASS line once its assertions went through; a pytest
failure is the FAIL line. Stated runtime limits are asserted where given.
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest
from scipy import stats

from qpzk.core import (
    PureState,
    RegisterLayout,
    fidelity,
    gentle_post_state,
    random_density,
    random_pure_state,
    random_unitary,
    rng_from,
    swap_test_povm,
    tensor,
    trace_distance,
)
from qpzk.core.sampling import random_projector
from qpzk.core.swap_test import swap_test_circuit_probability


def _announce(number: int, name: str):
    print(f"\nACCEPTANCE {number:2d} {name}: PASS")


class TestAcceptance:
    def test_01_swap_test_povm_equivalence(self):
        started = time.monotonic()
        rng = rng_from(9001)
        for trial in range(1000):
            qubits = 1 + trial % 3
            lay = RegisterLayout.single("A", qubits)
            rho = random_density(lay, rng)
            psi = random_pure_state(lay, rng)
            p_povm = swap_test_povm(rho, psi)
            p_circuit = swap_test_circuit_probability(rho, psi)
            assert abs(p_povm - p_circuit) <= 1e-9
            overlap = float(np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes).real)
            assert abs(p_povm - (1 + overlap) / 2) <= 1e-9
        elapsed = time.monotonic() - started
        assert elapsed < 10.0
        _announce(1, "swap-test POVM / circuit equivalence")

    def test_02_core_identities(self):
        started = time.monotonic()
        rng = rng_from(9002)
        for trial in range(10000):
            qubits = 1 + trial % 3  # dims 2, 4, 8
            lay = RegisterLayout.single("A", qubits)
            r, s, t = (random_density(lay, rng) for _ in range(3))
            assert fidelity(r, s) ** 2 + fidelity(s, t) ** 2 \
                <= 1.0 + fidelity(r, t) + 1e-9
        rng = rng_from(9102)
        lay = RegisterLayout.single("A", 2)
        checked = 0
        while checked < 10000:
            rho = random_density(lay, rng)
            pi = random_projector(4, int(rng.integers(1, 4)), rng)
            if float(np.trace(pi @ rho.matrix).real) < 0.5:
                continue
            _, post, bound = gentle_post_state(rho, pi)
            assert trace_distance(rho, post) <= bound + 1e-9
            checked += 1
        elapsed = time.monotonic() - started
        assert elapsed < 60.0
        _announce(2, "fidelity reverse triangle and gentle measurement")

    def test_03_pqma_protocol(self):
        from qpzk.pqma import (
            PqmaParams,
            PqmaProverInput,
            cheat_harness,
            exact_acceptance_product,
            honest_shape_strategy,
            hv_simulate_pqma,
            instance_check_family,
            orthogonal_copy_strategy,
            real_verifier_view,
            witness_match_family,
        )
        from qpzk.core.metrics import cq_trace_distance
        from qpzk.harness.records import upper_bound_row

        started = time.monotonic()
        # Honest completeness is exactly one on perfect-completeness
        # verifiers at one and two qubits (two-qubit: doubled instance).
        for inst in (instance_check_family("yes"), witness_match_family()):
            params = PqmaParams(8, 2)
            honest = PqmaProverInput.symmetric(inst.witness, inst.psi)
            assert exact_acceptance_product(params, inst, honest) \
                == pytest.approx(1.0, abs=1e-12)

        # Orthogonal-copy cheater sits at exactly 2^-q.
        no_inst = instance_check_family("no")
        params = PqmaParams(8, 2)
        cheat = orthogonal_copy_strategy(no_inst)
        assert exact_acceptance_product(params, no_inst, cheat.prover_input) \
            == pytest.approx(0.25, abs=1e-12)

        # Informative bound at large copy counts; every implemented family
        # stays below it over 10^4 trials.
        big = PqmaParams(2 * 10 ** 6, 300)
        report = cheat_harness(
            big, no_inst,
            [orthogonal_copy_strategy(no_inst), honest_shape_strategy(no_inst)],
            trials=10000, rng=rng_from(9003))
        assert report.bound <= 1.0
        assert upper_bound_row("cheat", report.max_empirical, report.bound,
                               report.sigma, "formula:test").verdict == "PASS"

        # Simulator and real verifier views coincide exactly, including for
        # entangled verifier inputs.
        yes = instance_check_family("yes")
        small = PqmaParams(6, 2)
        for vin in (
            tensor(PureState.from_bits(RegisterLayout.single("V0", 1), "1"),
                   PureState.from_bits(RegisterLayout.single("V1", 1), "0")),
            random_pure_state(RegisterLayout.of(("V0", 1), ("V1", 1), ("E", 1)),
                              rng_from(9004)),
        ):
            dist = cq_trace_distance(real_verifier_view(small, yes, vin),
                                     hv_simulate_pqma(small, yes, vin))
            assert dist <= 1e-9
        elapsed = time.monotonic() - started
        assert elapsed < 300.0
        _announce(3, "copy-test protocol completeness, cheats, simulator")

    def test_04_round_collapse(self):
        from qpzk.compilers.collapse import CollapsedProtocol, collapsed_soundness
        from qpzk.compilers.examples import random_perfect_base
        from qpzk.optimize import alternating_ascent, brute_force_prover_value
        from qpzk.protocol import InteractiveProtocol, run_protocol

        # Honest acceptance equals base completeness at r = 2 (exactly one
        # on perfect-completeness bases), and the branch-overlap identity
        # holds on constructed state pairs.
        for seed in range(3):
            base = random_perfect_base(seed)
            col = CollapsedProtocol(base)
            honest = col.honest_strategy()
            assert col.acceptance(honest) == pytest.approx(
                run_protocol(base), abs=1e-9)
            measured, predicted = col.branch_overlap_identity(honest, 1)
            assert measured == pytest.approx(predicted, abs=1e-9)

        # Oracle cheats never beat the closed-form bound on 50 random bases.
        psi_v = PureState.from_bits(RegisterLayout.single("W", 1), "0")
        for seed in range(50):
            g = rng_from(9040, seed)
            base = InteractiveProtocol(
                psi_v, 1, 1,
                [random_unitary(4, g), random_unitary(4, g)],
                [random_unitary(4, g), random_unitary(4, g)])
            zeta = brute_force_prover_value(base, rng_from(9041, seed),
                                            restarts=4, iters=80)
            bound = collapsed_soundness(min(zeta, 1.0), 2)
            res = alternating_ascent(
                CollapsedProtocol(base).ascent_problem(2),
                rng_from(9042, seed), restarts=4, iters=80)
            assert res.value <= bound + 1e-6
        _announce(4, "round collapse completeness, identity, soundness bound")

    def test_05_optimal_three_message_value(self):
        from qpzk.optimize import (
            brute_force_prover_value,
            optimal_three_message_value,
            three_message_protocol,
        )

        started = time.monotonic()
        checked = 0
        for seed in range(100):
            w_qubits = 1 + seed % 2
            dim = 2 ** (w_qubits + 1)
            g = rng_from(9050, seed)
            v1, v2 = random_unitary(dim, g), random_unitary(dim, g)
            psi_v = random_pure_state(RegisterLayout.single("W", w_qubits), g)
            closed = optimal_three_message_value(v1, v2, psi_v, 1)
            prot = three_message_protocol(v1, v2, psi_v, 1)
            oracle = brute_force_prover_value(
                prot, rng_from(9051, seed), restarts=5, iters=120,
                final_move_frozen=True)
            assert oracle == pytest.approx(closed, abs=1e-6)
            checked += 1
        assert checked >= 100
        elapsed = time.monotonic() - started
        assert elapsed < 300.0
        _announce(5, "principal-angle value agrees with the prover oracle")

    def test_06_public_coin(self):
        from qpzk.compilers.examples import (
            copier_base,
            hidden_target_base,
            rotated_copier_base,
        )
        from qpzk.compilers.public_coin import (
            make_public_coin,
            public_coin_soundness,
        )
        from qpzk.optimize import alternating_ascent, brute_force_prover_value
        from qpzk.protocol import Strategy, run_protocol

        # Honest acceptance at least one minus the base completeness error.
        for theta in (0.0, 0.5, 1.0):
            base = rotated_copier_base(theta)
            pc = make_public_coin(base)
            completeness_error = 1.0 - run_protocol(base)
            assert pc.acceptance(pc.honest_strategy()) \
                >= 1.0 - completeness_error - 1e-9

        # Oracle cheats below 3/4 + sqrt(zeta)/2 with zeta from the
        # criterion-5 oracle machinery on the same base.
        for idx, theta in enumerate((0.3, 0.7, 1.1)):
            base = hidden_target_base(theta)
            zeta = brute_force_prover_value(base, rng_from(9060, idx),
                                            restarts=5, iters=100)
            bound = public_coin_soundness(min(zeta, 1.0))
            pc = make_public_coin(base)
            res = alternating_ascent(pc.problem, rng_from(9061, idx),
                                     restarts=5, iters=120)
            assert res.value <= bound + 1e-6

        # Exact simulator transcripts are accepted with probability one.
        base = copier_base()
        pc = make_public_coin(base)
        sim = Strategy(base.honest.slots, name="honest-prover-standin")
        transcripts = pc.coin_views(sim)
        assert pc.transcript_acceptance(transcripts[0], 0) == pytest.approx(1.0, abs=1e-9)
        assert pc.transcript_acceptance(transcripts[1], 1) == pytest.approx(1.0, abs=1e-9)
        _announce(6, "public-coin completeness, soundness bound, simulator")

    def test_07_coin_flip_stage(self):
        from qpzk.compilers.coin_flip import (
            HONEST_VERIFIER,
            CoinFlipProtocol,
            MaliciousVerifier,
            biased_coin_flip_prover,
            real_malicious_views,
            zk_simulate_malicious,
        )
        from qpzk.core.metrics import cq_trace_distance
        from qpzk.compilers.examples import copier_base
        from qpzk.compilers.public_coin import make_public_coin
        from qpzk.protocol import Strategy

        base = copier_base()
        pc = make_public_coin(base)
        cf = CoinFlipProtocol(pc, 1)

        # Chi-square uniformity of the coin at 10^4 trials against biasing
        # provers in the ideal model.
        for bias in (0, 1):
            counts = cf.coin_marginal(biased_coin_flip_prover(pc, bias),
                                      10000, rng_from(9070, bias))
            _, p_value = stats.chisquare(counts)
            assert p_value > 0.01

        # Simulated views equal real views exactly, including abort paths.
        sim = Strategy(base.honest.slots, name="honest-prover-standin")
        cf2 = CoinFlipProtocol(pc, 2)
        verifiers = [
            HONEST_VERIFIER,
            MaliciousVerifier(name="bv1"),
            MaliciousVerifier(lambda t, c, h: t == 1 and c == 0, "aborter"),
        ]
        for verifier in verifiers:
            dist = cq_trace_distance(
                real_malicious_views(cf2, verifier),
                zk_simulate_malicious(cf2, verifier, sim))
            assert dist <= 1e-9
        _announce(7, "coin uniformity and malicious-verifier simulation")

    def test_08_parallel_repetition(self):
        from qpzk.compilers.examples import copier_base
        from qpzk.compilers.repetition import parallel_repeat, repeated_soundness
        from qpzk.optimize import brute_force_prover_value
        from qpzk.protocol import InteractiveProtocol

        assert repeated_soundness(0.5, 10) == 2.0 ** -10
        assert repeated_soundness(1.0, 3) == 1.0

        psi_v = PureState.from_bits(RegisterLayout.single("W", 1), "0")
        g = rng_from(9080)
        base = InteractiveProtocol(
            psi_v, 2, 1, [random_unitary(4, g), random_unitary(4, g)],
            [np.eye(8, dtype=complex)] * 2)
        single = brute_force_prover_value(base, rng_from(9081),
                                          restarts=8, iters=150)
        doubled = parallel_repeat(base, 2)
        double = brute_force_prover_value(doubled, rng_from(9082),
                                          restarts=8, iters=180)
        assert double == pytest.approx(single ** 2, abs=1e-6)
        _announce(8, "parallel repetition product law")

    def test_09_commitment_and_mac_games(self):
        from qpzk.core.operators import X
        from qpzk.crypto.commitments import (
            bell_ancilla_scheme,
            double_open_win_rate,
            identity_scheme,
            random_guess_adversary,
            tamper_and_read_adversary,
        )
        from qpzk.crypto.mac import QuantumMac

        trials = 10000
        hiding = bell_ancilla_scheme()
        rate, aborts = double_open_win_rate(
            hiding, random_guess_adversary(hiding), trials, rng_from(9090))
        sigma = np.sqrt(0.25 / trials)
        assert aborts == 0
        assert abs(rate - 0.5) <= 3 * sigma

        broken = identity_scheme(1)
        broken_rate, _ = double_open_win_rate(
            broken, tamper_and_read_adversary(broken), trials, rng_from(9091))
        assert broken_rate > 0.6

        mac = QuantumMac(1, 3)
        msg = random_pure_state(RegisterLayout.single("Msg", 1), rng_from(9092))
        for key in mac.keys:
            p, post = mac.decode(key, mac.encode(key, msg))
            assert p == pytest.approx(1.0, abs=1e-9)
            assert trace_distance(post, msg.to_mixed()) <= 1e-9
        attack = np.kron(X, np.eye(8, dtype=complex))
        assert mac.detection_probability(attack) == pytest.approx(0.75, abs=1e-12)
        _announce(9, "double-opening game and trap-code authentication")

    def test_10_uhlmann(self):
        from qpzk.uhlmann import (
            UOracle,
            canonical_target,
            compute_uhlmann,
            expected_output,
            honest_prover,
            perturbed_prover,
            random_instance,
            real_verifier_output,
            run_uhlmann_protocol,
            soundness_check,
            zk_simulate_uhlmann,
        )

        for seed in range(100):
            inst = random_instance(2, 2, rng_from(9100, seed))
            assert compute_uhlmann(inst).residual <= 1e-9

        inst = random_instance(2, 2, rng_from(9101), delta=2.0)
        assert inst.gamma == 32
        rng = rng_from(9102)
        target = canonical_target(inst)
        result = run_uhlmann_protocol(inst, honest_prover(inst), target, rng)
        assert result.outcome == "accept"
        assert trace_distance(result.output.to_mixed(),
                              expected_output(inst).to_mixed()) <= 1e-9

        record = soundness_check(inst, perturbed_prover(inst, 0.05))
        assert record.acceptance >= 0.5
        assert record.bound == 0.5
        assert record.trace_distance <= record.bound + 1e-9

        vin = random_pure_state(RegisterLayout.of(("E", 1), ("T", 2)),
                                rng_from(9104))
        oracle = UOracle(inst)
        view = zk_simulate_uhlmann(inst, vin, oracle)
        assert oracle.calls == 1
        assert trace_distance(real_verifier_output(inst, vin).to_mixed(),
                              view.to_mixed()) <= 1e-9
        _announce(10, "matching unitary, delegation protocol, single-query simulator")

    def test_11_reproducibility(self):
        from qpzk.harness.config import ExperimentConfig
        from qpzk.harness.experiments import run_experiment

        for kind, trials in (("double-open", 500), ("mac", 1), ("zk", 2000)):
            cfg = ExperimentConfig(kind=kind, seed=123, trials=trials)
            first = run_experiment(cfg)
            second = run_experiment(cfg)
            assert first.comparable_bytes() == second.comparable_bytes()
        _announce(11, "seeded experiments reproduce identical metric values")
