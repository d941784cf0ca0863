"""collapse: the round-collapse compiler's honest acceptance, branch-overlap
identity and soundness bound against the ascent oracle."""

from __future__ import annotations

from qpzk.compilers.collapse import CollapsedProtocol, collapsed_soundness
from qpzk.compilers.examples import copier_base, random_perfect_base
from qpzk.core.registers import RegisterLayout
from qpzk.core.sampling import random_unitary, rng_from
from qpzk.core.states import PureState
from qpzk.harness.config import ExperimentConfig
from qpzk.harness.experiments import _load_base, _oracle_excess_row
from qpzk.harness.records import ExperimentRecord, MetricRow, equality_row
from qpzk.protocol import InteractiveProtocol, run_protocol


def run(config: ExperimentConfig, record: ExperimentRecord) -> None:
    base = _load_base(config, copier_base)
    col = CollapsedProtocol(base)
    honest = col.honest_strategy()
    # With base completeness c every challenge's accept check passes with
    # probability c; the Bell test of the last one passes with (1 + c) / 2
    # and the others' with 1.
    c, r = run_protocol(base), col.r
    record.add(equality_row("honest-acceptance-vs-base-completeness",
                            col.acceptance(honest), c * (r - 2 + (1 + c) / 2) / (r - 1),
                            config.tolerance("identity", 1e-9),
                            "exact:base-protocol"))
    overlap = col.branch_overlap_identity(honest, 1)
    if overlap is None:
        record.add(MetricRow("branch-overlap-identity", None, None, 0.0,
                             "NOT-APPLICABLE", "formula:branch-overlap"))
    else:
        record.add(equality_row("branch-overlap-identity", *overlap,
                                config.tolerance("identity", 1e-9),
                                "formula:branch-overlap"))

    bases = [random_perfect_base(idx) if idx % 2 == 0 else _random_base(config, idx)
             for idx in range(config.param("bases"))]
    if "base_protocol" in config.instances:
        # A loaded base is checked too, on the substreams after the built-in ones.
        bases.append(base)
    record.add(_oracle_excess_row(
        config, "collapse-oracle-worst-excess-over-bound", bases,
        lambda zeta: collapsed_soundness(zeta, 2),
        lambda b: CollapsedProtocol(b).ascent_problem(2),
        config.param("oracle_restarts"), config.param("oracle_iters")))


def _random_base(config: ExperimentConfig, idx: int) -> InteractiveProtocol:
    g = rng_from(config.seed, config.experiment_id, 1000 + idx)
    psi_v = PureState.from_bits(RegisterLayout.single("W", 1), "0")
    return InteractiveProtocol.from_verifier_start(
        psi_v, 1, 1, [random_unitary(4, g), random_unitary(4, g)],
        [random_unitary(4, g), random_unitary(4, g)])
