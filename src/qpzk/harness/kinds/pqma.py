"""pqma: completeness, the copy-test soundness bound, a cheating family and
the simulator's view distance of the proof system for pure-state QMA."""

from __future__ import annotations

from qpzk.core.metrics import cq_trace_distance
from qpzk.core.registers import RegisterLayout
from qpzk.core.states import random_pure_state
from qpzk.harness.config import ExperimentConfig
from qpzk.harness.experiments import _stream
from qpzk.harness.records import ExperimentRecord, MetricRow, equality_row, upper_bound_row
from qpzk.pqma import (
    PqmaParams,
    PqmaProverInput,
    cheat_harness,
    exact_acceptance_product,
    honest_shape_strategy,
    hv_simulate_pqma,
    instance_check_family,
    load_instance,
    orthogonal_copy_strategy,
    real_verifier_view,
    soundness_bound,
)


def run(config: ExperimentConfig, record: ExperimentRecord) -> None:
    trials = config.effective_trials
    p, q = config.param("p"), config.param("q")
    params = PqmaParams(p, q)

    if "instance" in config.instances:
        yes_inst = load_instance(config.instances["instance"])
    else:
        yes_inst = instance_check_family("yes")
    no_inst = instance_check_family("no")

    honest = PqmaProverInput.symmetric(yes_inst.witness, yes_inst.psi)
    record.add(equality_row("honest-completeness",
                            exact_acceptance_product(params, yes_inst, honest),
                            1.0, config.tolerance("identity"), "exact:product-evaluation"))

    cheat = orthogonal_copy_strategy(no_inst)
    record.add(equality_row("orthogonal-copy-exact-acceptance",
                            exact_acceptance_product(params, no_inst,
                                                     cheat.prover_input),
                            2.0 ** -q, 1e-9, "exact:product-evaluation"))

    n = yes_inst.psi.n_qubits
    small_bound = soundness_bound(p, q, n)
    record.add(MetricRow("small-copy-bound", small_bound, None, 0.0,
                         "VACUOUS" if small_bound > 1 else "PASS",
                         "formula:copy-test-soundness"))

    p_large, q_large = config.param("p_large"), config.param("q_large")
    big = PqmaParams(p_large, q_large)
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
    dist = cq_trace_distance(real_verifier_view(params, yes_inst, vin),
                             hv_simulate_pqma(params, yes_inst, vin))
    record.add(equality_row("simulator-view-distance", dist, 0.0,
                            config.tolerance("identity"), "exact:branch-ensemble"))
