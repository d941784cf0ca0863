"""uhlmann: the matching unitary's defining identity, the delegation
protocol's honest output and soundness, and its one-query simulator."""

from __future__ import annotations

from qpzk.core.metrics import trace_distance
from qpzk.core.registers import RegisterLayout
from qpzk.core.states import random_pure_state
from qpzk.harness.config import ExperimentConfig
from qpzk.harness.experiments import _stream
from qpzk.harness.records import ExperimentRecord, MetricRow, equality_row, upper_bound_row
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


def run(config: ExperimentConfig, record: ExperimentRecord) -> None:
    delta = config.param("delta")
    rq, sq = config.param("r_qubits"), config.param("s_qubits")
    count = config.param("instances")

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

    rec = soundness_check(inst, perturbed_prover(inst, config.param("perturbation")))
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
