"""Seeded experiment implementations behind the harness entry point.

Every random draw comes from a stream keyed by (master seed, experiment id,
substream index), so records are reproducible and independent of execution
order. Bound sources are named after the evaluator or oracle that produced
the reference value.
"""

from __future__ import annotations

import time

import numpy as np

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
from qpzk.harness.config import ExperimentConfig
from qpzk.harness.records import (
    ExperimentRecord,
    MetricRow,
    equality_row,
    threshold_row,
    upper_bound_row,
)


def run_experiment(config: ExperimentConfig) -> ExperimentRecord:
    started = time.monotonic()
    record = ExperimentRecord(config_echo=config.echo())
    runner = _RUNNERS[config.kind]
    runner(config, record)
    record.wall_clock_seconds = time.monotonic() - started
    return record


def _stream(config: ExperimentConfig, substream: int):
    return rng_from(config.seed, config.experiment_id, substream)


# -- core-check -----------------------------------------------------------------


def _run_core_check(config: ExperimentConfig, record: ExperimentRecord) -> None:
    samples = int(config.param("samples"))
    max_dim_qubits = int(config.param("dims"))
    tol = config.tolerance("identity", 1e-9)

    rng = _stream(config, 0)
    worst = 0.0
    for _ in range(samples):
        lay = RegisterLayout.single("A", int(rng.integers(1, max_dim_qubits + 1)))
        r, s, t = (random_density(lay, rng) for _ in range(3))
        lhs = fidelity(r, s) ** 2 + fidelity(s, t) ** 2
        rhs = 1.0 + fidelity(r, t)
        worst = max(worst, lhs - rhs)
    record.add(upper_bound_row("fidelity-reverse-triangle-worst-violation",
                               worst, 0.0, 0.0, "formula:fidelity-reverse-triangle",
                               slack=tol))

    rng = _stream(config, 1)
    worst = 0.0
    for _ in range(samples):
        lay = RegisterLayout.single("A", 2)
        rho = random_density(lay, rng)
        pi = random_projector(4, int(rng.integers(1, 4)), rng)
        if float(np.trace(pi @ rho.matrix).real) < 0.5:
            continue
        p, post, bound = gentle_post_state(rho, pi)
        worst = max(worst, trace_distance(rho, post) - bound)
    record.add(upper_bound_row("gentle-measurement-worst-violation", worst,
                               0.0, 0.0, "formula:gentle-measurement", slack=tol))

    rng = _stream(config, 2)
    worst = 0.0
    for _ in range(samples):
        lay = RegisterLayout.single("A", int(rng.integers(1, 3)))
        rho = random_density(lay, rng)
        psi = random_pure_state(lay, rng)
        worst = max(worst, abs(swap_test_povm(rho, psi)
                               - swap_test_circuit_probability(rho, psi)))
    record.add(equality_row("swap-test-path-disagreement-worst", worst, 0.0,
                            tol, "oracle:swap-test-circuit"))

    rng = _stream(config, 3)
    worst = 0.0
    for _ in range(samples):
        a = random_pure_state(RegisterLayout.single("A", 1), rng)
        b = random_pure_state(RegisterLayout.single("B", 1), rng)
        joint = tensor(a, b)
        from qpzk.core import partial_trace

        worst = max(worst, float(np.abs(
            partial_trace(joint, "B").matrix - a.density()).max()))
    record.add(equality_row("partial-trace-tensor-roundtrip-worst", worst,
                            0.0, tol, "formula:product-reduction"))

    rng = _stream(config, 4)
    from qpzk.core.metrics import max_povm_advantage_dim2

    worst = 0.0
    for _ in range(min(samples, 50)):
        a = random_density(RegisterLayout.single("A", 1), rng)
        b = random_density(RegisterLayout.single("A", 1), rng)
        td = trace_distance(a, b)
        _, eig = max_povm_advantage_dim2(a, b, grid=60)
        worst = max(worst, abs(td - eig))
    record.add(equality_row("trace-distance-povm-duality-worst", worst, 0.0,
                            tol, "oracle:eigenprojector-advantage"))


# -- pqma -----------------------------------------------------------------------


def _run_pqma(config: ExperimentConfig, record: ExperimentRecord) -> None:
    from qpzk.pqma import (
        PqmaParams,
        PqmaProverInput,
        cheat_harness,
        exact_acceptance_product,
        hv_simulate_pqma,
        instance_check_family,
        load_instance,
        orthogonal_copy_strategy,
        honest_shape_strategy,
        real_verifier_view,
        soundness_bound,
        view_distance,
    )

    trials = config.effective_trials
    p, q, n = int(config.param("p")), int(config.param("q")), int(config.param("n"))
    params = PqmaParams(p, q, n)

    if "instance" in config.instances:
        yes_inst = load_instance(config.instances["instance"])
    else:
        yes_inst = instance_check_family("yes")
    no_inst = instance_check_family("no")

    honest = PqmaProverInput.symmetric(yes_inst.witness, yes_inst.psi)
    record.add(equality_row("honest-completeness",
                            exact_acceptance_product(params, yes_inst, honest),
                            1.0, config.tolerance("identity", 1e-9),
                            "exact:product-evaluation"))

    cheat = orthogonal_copy_strategy(no_inst)
    record.add(equality_row("orthogonal-copy-exact-acceptance",
                            exact_acceptance_product(params, no_inst,
                                                     cheat.prover_input),
                            2.0 ** -q, 1e-9, "exact:product-evaluation"))

    small_bound = soundness_bound(p, q, n)
    record.add(MetricRow("small-copy-bound", small_bound, None, 0.0,
                         "VACUOUS" if small_bound > 1 else "PASS",
                         "formula:copy-test-soundness"))

    p_large, q_large = int(config.param("p_large")), int(config.param("q_large"))
    big = PqmaParams(p_large, q_large, n)
    rng = _stream(config, 1)
    report = cheat_harness(big, no_inst,
                           [orthogonal_copy_strategy(no_inst),
                            honest_shape_strategy(no_inst)],
                           trials=max(10, trials // 100), rng=rng)
    record.add(upper_bound_row("cheat-family-max-acceptance",
                               report.max_empirical, report.bound,
                               report.sigma, "formula:copy-test-soundness"))

    lay = RegisterLayout.of(*[(f"V{j}", n) for j in range(q)])
    rng = _stream(config, 2)
    vin = random_pure_state(lay, rng)
    dist = view_distance(real_verifier_view(params, yes_inst, vin),
                         hv_simulate_pqma(params, yes_inst, vin))
    record.add(equality_row("simulator-view-distance", dist, 0.0,
                            config.tolerance("identity", 1e-9),
                            "exact:branch-ensemble"))


# -- collapse ---------------------------------------------------------------------


def _load_base(config: ExperimentConfig, default_builder):
    from qpzk.protocol import load_protocol

    if "base_protocol" in config.instances:
        return load_protocol(config.instances["base_protocol"])
    return default_builder()


def _run_collapse(config: ExperimentConfig, record: ExperimentRecord) -> None:
    from qpzk.compilers.collapse import CollapsedProtocol, collapsed_soundness
    from qpzk.compilers.examples import copier_base, random_perfect_base
    from qpzk.optimize import alternating_ascent, brute_force_prover_value
    from qpzk.protocol import run_protocol

    base = _load_base(config, copier_base)
    col = CollapsedProtocol(base)
    honest = col.honest_strategy()
    record.add(equality_row("honest-acceptance-vs-base-completeness",
                            col.acceptance(honest), run_protocol(base),
                            config.tolerance("identity", 1e-9),
                            "exact:base-protocol"))
    measured, predicted = col.branch_overlap_identity(honest, 1)
    record.add(equality_row("branch-overlap-identity", measured, predicted,
                            config.tolerance("identity", 1e-9),
                            "formula:branch-overlap"))

    n_bases = int(config.param("bases"))
    restarts = int(config.param("oracle_restarts"))
    iters = int(config.param("oracle_iters"))
    worst_margin = None
    for idx in range(n_bases):
        rnd = random_perfect_base(idx) if idx % 2 == 0 else _random_base(config, idx)
        zeta = brute_force_prover_value(rnd, _stream(config, 10 + idx),
                                        restarts=restarts, iters=iters)
        bound = collapsed_soundness(min(zeta, 1.0), 2)
        res = alternating_ascent(CollapsedProtocol(rnd).ascent_problem(2),
                                 _stream(config, 100 + idx),
                                 restarts=restarts, iters=iters)
        margin = bound - res.value
        worst_margin = margin if worst_margin is None else min(worst_margin, margin)
    record.add(upper_bound_row("collapse-oracle-worst-excess-over-bound",
                               -worst_margin, 0.0, 0.0,
                               "oracle:alternating-ascent", slack=1e-6))


def _random_base(config: ExperimentConfig, idx: int):
    from qpzk.protocol import InteractiveProtocol

    g = rng_from(config.seed, config.experiment_id, 1000 + idx)
    psi_v = PureState.from_bits(RegisterLayout.single("W", 1), "0")
    return InteractiveProtocol.from_verifier_start(
        psi_v, 1, 1, [random_unitary(4, g), random_unitary(4, g)],
        [random_unitary(4, g), random_unitary(4, g)])


# -- public-coin --------------------------------------------------------------------


def _run_public_coin(config: ExperimentConfig, record: ExperimentRecord) -> None:
    from qpzk.compilers.examples import (
        copier_base,
        hidden_target_base,
        rotated_copier_base,
    )
    from qpzk.compilers.public_coin import (
        hv_simulate_public_coin,
        make_public_coin,
        public_coin_soundness,
    )
    from qpzk.compilers.types import HvzkSimulator
    from qpzk.optimize import alternating_ascent, brute_force_prover_value
    from qpzk.protocol import run_protocol

    theta = float(config.param("theta"))
    base = rotated_copier_base(theta)
    pc = make_public_coin(base)
    honest = pc.honest_strategy()
    completeness = run_protocol(base)
    record.add(upper_bound_row("one-minus-honest-acceptance",
                               1.0 - pc.acceptance(honest),
                               1.0 - completeness, 0.0,
                               "exact:branch-average", slack=1e-9))

    restarts = int(config.param("oracle_restarts"))
    iters = int(config.param("oracle_iters"))
    worst = None
    for idx in range(int(config.param("bases"))):
        b = hidden_target_base(0.3 + 0.25 * idx)
        zeta = brute_force_prover_value(b, _stream(config, 10 + idx),
                                        restarts=restarts, iters=iters)
        bound = public_coin_soundness(min(zeta, 1.0))
        res = alternating_ascent(make_public_coin(b).ascent_problem(0),
                                 _stream(config, 100 + idx),
                                 restarts=restarts, iters=iters)
        margin = bound - res.value
        worst = margin if worst is None else min(worst, margin)
    record.add(upper_bound_row("public-coin-oracle-worst-excess-over-bound",
                               -worst, 0.0, 0.0, "oracle:alternating-ascent",
                               slack=1e-6))

    # Exact simulator rows need perfect completeness; the transcript is then
    # accepted with certainty on both branches.
    perfect = copier_base()
    pc_perfect = make_public_coin(perfect)
    sim = HvzkSimulator.from_honest_prover(perfect)
    transcripts = pc_perfect.simulator_transcripts(sim)
    record.add(equality_row(
        "simulator-transcript-acceptance",
        0.5 * pc_perfect.transcript_acceptance(transcripts[0], 0)
        + 0.5 * pc_perfect.transcript_acceptance(transcripts[1], 1),
        1.0, config.tolerance("identity", 1e-9), "exact:branch-evaluation"))

    rng = _stream(config, 2)
    n = config.effective_trials
    ones = sum(hv_simulate_public_coin(pc_perfect, sim, rng).coin for _ in range(n))
    sigma = float(np.sqrt(0.25 / n))
    record.add(upper_bound_row("simulated-coin-bias", abs(ones / n - 0.5),
                               0.0, sigma, "exact:uniform-coin"))


# -- zk (coin-flip stage) --------------------------------------------------------------


def _run_zk(config: ExperimentConfig, record: ExperimentRecord) -> None:
    from scipy import stats

    from qpzk.compilers.coin_flip import (
        HONEST_VERIFIER,
        MaliciousVerifier,
        biased_coin_flip_prover,
        make_malicious_zk,
        real_malicious_views,
        view_ensemble_distance,
        zk_simulate_malicious,
    )
    from qpzk.compilers.examples import copier_base
    from qpzk.compilers.public_coin import make_public_coin
    from qpzk.compilers.types import HvzkSimulator

    base = copier_base()
    pc = make_public_coin(base)
    reps = int(config.param("reps"))
    cf = make_malicious_zk(pc, reps)
    trials = config.effective_trials

    rng = _stream(config, 0)
    counts = cf.coin_marginal(biased_coin_flip_prover(pc, 1), trials // reps, rng)
    _, p_value = stats.chisquare(counts)
    record.add(threshold_row("coin-uniformity-chi-square-p", float(p_value),
                             0.01, "formula:ideal-xor-uniformity", above=True))

    sim = HvzkSimulator.from_honest_prover(base)
    for verifier in (
        HONEST_VERIFIER,
        MaliciousVerifier(lambda t, h: 0, lambda t, c, h: False, "fixed-bv0"),
        MaliciousVerifier(lambda t, h: 1, lambda t, c, h: t == 1 and c == 1,
                          "aborting"),
    ):
        dist = view_ensemble_distance(real_malicious_views(cf, verifier),
                                      zk_simulate_malicious(cf, verifier, sim))
        record.add(equality_row(f"view-distance-{verifier.name}", dist, 0.0,
                                config.tolerance("identity", 1e-9),
                                "exact:view-ensemble"))


# -- double-open --------------------------------------------------------------------


def _run_double_open(config: ExperimentConfig, record: ExperimentRecord) -> None:
    from qpzk.crypto.commitments import (
        bell_ancilla_scheme,
        double_open_win_rate,
        identity_scheme,
        load_scheme,
        random_guess_adversary,
        read_swap_target_adversary,
        tamper_and_read_adversary,
    )

    trials = config.effective_trials
    if "scheme" in config.instances:
        hiding_scheme = load_scheme(config.instances["scheme"])
    else:
        hiding_scheme = bell_ancilla_scheme()

    rate, _ = double_open_win_rate(hiding_scheme, random_guess_adversary(hiding_scheme),
                                   trials, _stream(config, 0))
    sigma = float(np.sqrt(0.25 / trials))
    record.add(upper_bound_row("honest-adversary-win-rate-offset",
                               abs(rate - 0.5), 0.0, sigma,
                               "exact:branch-independence"))

    rate, _ = double_open_win_rate(hiding_scheme, read_swap_target_adversary(hiding_scheme),
                                   trials, _stream(config, 1))
    record.add(upper_bound_row("reading-adversary-win-rate-offset",
                               abs(rate - 0.5), 0.0, sigma,
                               "exact:branch-independence"))

    broken = identity_scheme(1)
    rate, _ = double_open_win_rate(broken, tamper_and_read_adversary(broken),
                                   trials, _stream(config, 2))
    record.add(threshold_row("broken-scheme-win-rate", rate, 0.6,
                             "oracle:tamper-distinguisher", above=True))


# -- mac -----------------------------------------------------------------------------


def _run_mac(config: ExperimentConfig, record: ExperimentRecord) -> None:
    from qpzk.core.operators import X
    from qpzk.crypto.mac import QuantumMac, mac_real_vs_ideal, natural_simulator

    mac = QuantumMac(int(config.param("message_qubits")),
                     int(config.param("traps")))
    rng = _stream(config, 0)
    msg = random_pure_state(RegisterLayout.single("Msg", mac.message_qubits), rng)
    worst = 0.0
    for key in mac.keys:
        p, post = mac.decode(key, mac.encode(key, msg))
        worst = max(worst, abs(p - 1.0), trace_distance(post, msg.to_mixed()))
    record.add(equality_row("roundtrip-worst-error-over-all-keys", worst, 0.0,
                            config.tolerance("identity", 1e-9),
                            "exact:key-enumeration"))

    attack = np.kron(X, np.eye(2 ** (mac.code_qubits - 1), dtype=complex))
    det = mac.detection_probability(attack)
    want = mac.traps / mac.code_qubits
    record.add(equality_row("single-wire-flip-detection", det, want, 1e-12,
                            "exact:key-enumeration"))

    rho = random_pure_state(RegisterLayout.of(("M", mac.message_qubits),
                                              ("R", 1)), rng).to_mixed()
    x_all = np.eye(1, dtype=complex)
    for _ in range(mac.code_qubits):
        x_all = np.kron(x_all, X)
    acc, rej = natural_simulator(mac, x_all, r_qubits=1)
    dist = mac_real_vs_ideal(mac, np.kron(x_all, np.eye(2, dtype=complex)),
                             rho, acc, rej, r_qubits=1)
    record.add(upper_bound_row("trap-flip-attack-simulation-distance", dist,
                               0.05, 0.0, "exact:key-enumeration"))

    dist_wrong = mac_real_vs_ideal(mac, np.kron(attack, np.eye(2, dtype=complex)),
                                   rho, [np.eye(2, dtype=complex)], [], r_qubits=1)
    record.add(threshold_row("wrong-simulator-distance-near-detection-gap",
                             dist_wrong, 0.5, "exact:key-enumeration", above=True))


# -- uhlmann -----------------------------------------------------------------------


def _run_uhlmann(config: ExperimentConfig, record: ExperimentRecord) -> None:
    from qpzk.uhlmann import (
        UOracle,
        canonical_target,
        compute_uhlmann,
        expected_output,
        honest_prover,
        load_instance,
        perturbed_prover,
        random_instance,
        real_verifier_output,
        run_uhlmann_protocol,
        soundness_check,
        zk_simulate_uhlmann,
    )

    delta = float(config.param("delta"))
    rq, sq = int(config.param("r_qubits")), int(config.param("s_qubits"))
    count = int(config.param("instances"))

    worst = 0.0
    for idx in range(count):
        inst = random_instance(rq, sq, _stream(config, idx), delta)
        worst = max(worst, compute_uhlmann(inst).residual)
    record.add(equality_row("matching-identity-worst-residual", worst, 0.0,
                            config.tolerance("identity", 1e-9),
                            "exact:defining-identity"))

    if "instance" in config.instances:
        inst = load_instance(config.instances["instance"])
    else:
        inst = random_instance(rq, sq, _stream(config, 1000), delta)
    rng = _stream(config, 1001)
    target = canonical_target(inst)
    result = run_uhlmann_protocol(inst, honest_prover(inst), target, rng)
    dist = trace_distance(result.output.to_mixed(), expected_output(inst).to_mixed())
    record.add(equality_row("honest-protocol-output-distance",
                            dist if result.outcome == "accept" else 1.0,
                            0.0, config.tolerance("identity", 1e-9),
                            "exact:state-evolution"))

    rec = soundness_check(inst, perturbed_prover(inst, float(config.param("perturbation"))),
                          trials=config.effective_trials, rng=_stream(config, 1002))
    if rec.verdict == "NOT-APPLICABLE":
        record.add(MetricRow("perturbed-prover-output-distance", rec.acceptance,
                             rec.bound, 0.0, "NOT-APPLICABLE",
                             "formula:inverse-delta"))
    else:
        record.add(upper_bound_row("perturbed-prover-output-distance",
                                   rec.trace_distance, rec.bound, 0.0,
                                   "formula:inverse-delta", slack=1e-9))

    vin = random_pure_state(RegisterLayout.of(("E", 1), ("T", sq)),
                            _stream(config, 1003))
    oracle = UOracle(inst)
    view = zk_simulate_uhlmann(inst, vin, oracle)
    real = real_verifier_output(inst, vin)
    record.add(equality_row("simulator-view-distance",
                            trace_distance(real.to_mixed(), view.output.to_mixed()),
                            0.0, config.tolerance("identity", 1e-9),
                            "exact:state-evolution"))
    record.add(equality_row("simulator-oracle-calls", float(oracle.calls), 1.0,
                            0.0, "exact:instrumentation"))


# -- pipeline ----------------------------------------------------------------------


def _run_pipeline(config: ExperimentConfig, record: ExperimentRecord) -> None:
    from qpzk.compilers.examples import copier_base, partial_coupler_base
    from qpzk.compilers.pipeline import (
        build_pipeline,
        composite_bound,
        pipeline_cheat_strategies,
    )
    from qpzk.optimize import brute_force_prover_value

    # Completeness leg: a perfect-completeness base survives the whole
    # executable chain untouched.
    perfect = build_pipeline(copier_base())
    hon = perfect.public_coin.honest_strategy()
    record.add(equality_row("pipeline-honest-acceptance",
                            perfect.public_coin.acceptance(hon), 1.0,
                            config.tolerance("identity", 1e-9),
                            "exact:branch-average"))

    # Soundness leg: a base with a genuinely small prover value. The
    # collapse step alone costs at least 15/16, so the executable composite
    # is vacuous by construction; amplification makes it informative at the
    # formula level and both values are recorded.
    base = _load_base(config,
                      lambda: partial_coupler_base(0.5, float(config.param("theta"))))
    k = int(config.param("k"))
    stages = build_pipeline(base)

    zeta = brute_force_prover_value(base, _stream(config, 0),
                                    restarts=6, iters=100)
    bound = composite_bound(min(zeta, 1.0), 2, k)
    record.add(MetricRow("base-soundness-oracle", zeta, None, 0.0, "PASS",
                         "oracle:alternating-ascent"))
    record.add(MetricRow("composite-bound", bound, None, 0.0,
                         "VACUOUS" if bound > 1 else "PASS",
                         "formula:composite-soundness"))
    k_informative = 128
    amplified = composite_bound(min(zeta, 1.0), 2, k_informative)
    record.add(MetricRow(f"composite-bound-amplified-k{k_informative}",
                         amplified, None, 0.0,
                         "VACUOUS" if amplified > 1 else "PASS",
                         "formula:composite-soundness"))

    trials = config.effective_trials
    rng = _stream(config, 1)
    k1_bound = composite_bound(min(zeta, 1.0), 2, 1)
    for idx, strat in enumerate(pipeline_cheat_strategies(stages, rng)):
        hits, exact = stages.public_coin.sample_hits(strat, trials,
                                                     _stream(config, 2 + idx))
        sigma = float(np.sqrt(max(exact * (1 - exact), 1e-9) / trials))
        record.add(upper_bound_row(f"pipeline-cheat-{strat.name}", hits / trials,
                                   k1_bound, sigma,
                                   "formula:composite-soundness"))


_RUNNERS = {
    "core-check": _run_core_check,
    "pqma": _run_pqma,
    "collapse": _run_collapse,
    "public-coin": _run_public_coin,
    "zk": _run_zk,
    "double-open": _run_double_open,
    "mac": _run_mac,
    "uhlmann": _run_uhlmann,
    "pipeline": _run_pipeline,
}
