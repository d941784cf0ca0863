"""pipeline: the whole compiler chain's honest acceptance, its composite
soundness bound, and cheating provers sampled against that bound."""

from __future__ import annotations

import numpy as np

from qpzk.compilers.examples import copier_base, partial_coupler_base
from qpzk.compilers.pipeline import build_pipeline, composite_bound, pipeline_cheat_strategies
from qpzk.harness.config import ExperimentConfig
from qpzk.harness.experiments import _load_base, _stream
from qpzk.harness.records import ExperimentRecord, MetricRow, equality_row, upper_bound_row
from qpzk.optimize import brute_force_prover_value


def run(config: ExperimentConfig, record: ExperimentRecord) -> None:
    # Completeness leg: a perfect-completeness base survives the whole
    # executable chain untouched.
    perfect = build_pipeline(copier_base())
    record.add(equality_row("pipeline-honest-acceptance",
                            perfect.acceptance(perfect.honest_strategy()), 1.0,
                            config.tolerance("identity"), "exact:branch-average"))

    # Soundness leg: a base with a genuinely small prover value. The
    # collapse step alone costs at least 15/16, so the executable composite
    # is vacuous by construction; amplification makes it informative at the
    # formula level and both values are recorded.
    base = _load_base(config,
                      lambda: partial_coupler_base(0.5, config.param("theta")))
    k = config.param("k")
    pc = build_pipeline(base)

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
    for idx, strat in enumerate(pipeline_cheat_strategies(pc, rng)):
        hits, exact = pc.sample_hits(strat, trials, _stream(config, 2 + idx))
        sigma = float(np.sqrt(max(exact * (1 - exact), 1e-9) / trials))
        record.add(upper_bound_row(f"pipeline-cheat-{strat.name}", hits / trials,
                                   k1_bound, sigma,
                                   "formula:composite-soundness"))
