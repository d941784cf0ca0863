"""public-coin: the public-coin compiler's completeness, soundness bound
against the ascent oracle, and its honest-verifier simulator."""

from __future__ import annotations

import numpy as np

from qpzk.compilers.examples import copier_base, hidden_target_base, rotated_copier_base
from qpzk.compilers.public_coin import (
    hv_simulate_public_coin,
    make_public_coin,
    public_coin_soundness,
)
from qpzk.compilers.types import HvzkSimulator
from qpzk.harness.config import ExperimentConfig
from qpzk.harness.experiments import _oracle_excess_row, _stream
from qpzk.harness.records import ExperimentRecord, equality_row, upper_bound_row
from qpzk.protocol import run_protocol


def run(config: ExperimentConfig, record: ExperimentRecord) -> None:
    theta = config.param("theta")
    base = rotated_copier_base(theta)
    pc = make_public_coin(base)
    honest = pc.honest_strategy()
    completeness = run_protocol(base)
    record.add(upper_bound_row("one-minus-honest-acceptance",
                               1.0 - pc.acceptance(honest),
                               1.0 - completeness, 0.0,
                               "exact:branch-average", slack=1e-9))

    bases = (hidden_target_base(0.3 + 0.25 * idx) for idx in range(config.param("bases")))
    record.add(_oracle_excess_row(
        config, "public-coin-oracle-worst-excess-over-bound", bases, public_coin_soundness,
        lambda b: make_public_coin(b).ascent_problem(0),
        config.param("oracle_restarts"), config.param("oracle_iters")))

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
    ones = sum(t.coin for t in hv_simulate_public_coin(pc_perfect, sim, n, rng))
    sigma = float(np.sqrt(0.25 / n))
    record.add(upper_bound_row("simulated-coin-bias", abs(ones / n - 0.5),
                               0.0, sigma, "exact:uniform-coin"))
