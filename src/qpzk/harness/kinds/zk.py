"""zk: the coin-flip stage's coin uniformity and its malicious-verifier
simulator's view distances."""

from __future__ import annotations

import math

import numpy as np

from qpzk.compilers.coin_flip import (
    HONEST_VERIFIER,
    CoinFlipProtocol,
    MaliciousVerifier,
    biased_coin_flip_prover,
    real_malicious_views,
    view_ensemble_distance,
    zk_simulate_malicious,
)
from qpzk.compilers.examples import copier_base
from qpzk.compilers.public_coin import make_public_coin
from qpzk.compilers.types import HvzkSimulator
from qpzk.errors import ConfigError
from qpzk.harness.config import ExperimentConfig
from qpzk.harness.experiments import _stream
from qpzk.harness.records import ExperimentRecord, equality_row, threshold_row


def _uniform_chi_square_p(counts) -> float:
    """p-value of Pearson's chi-square test of two counts against equal
    frequencies; with one degree of freedom the chi-square tail is
    erfc(sqrt(x / 2))."""
    counts = np.asarray(counts, dtype=float)
    expected = counts.mean()
    x = float(((counts - expected) ** 2 / expected).sum())
    return math.erfc(math.sqrt(x / 2))


def run(config: ExperimentConfig, record: ExperimentRecord) -> None:
    reps = config.param("reps")
    trials = config.effective_trials
    if trials < reps:
        raise ConfigError(f"trials: {trials} is below params.reps ({reps}), "
                          f"so no coin-flip execution would run")
    base = copier_base()
    pc = make_public_coin(base)
    cf = CoinFlipProtocol(pc, reps)

    rng = _stream(config, 0)
    counts = cf.coin_marginal(biased_coin_flip_prover(pc, 1), trials // reps, rng)
    record.add(threshold_row("coin-uniformity-chi-square-p", _uniform_chi_square_p(counts),
                             0.01, "formula:ideal-xor-uniformity", above=True))

    sim = HvzkSimulator.from_honest_prover(base)
    for verifier in (
        HONEST_VERIFIER,
        MaliciousVerifier(name="fixed-bv0"),
        MaliciousVerifier(lambda t, c, h: t == 1 and c == 1, "aborting"),
    ):
        dist = view_ensemble_distance(real_malicious_views(cf, verifier),
                                      zk_simulate_malicious(cf, verifier, sim))
        record.add(equality_row(f"view-distance-{verifier.name}", dist, 0.0,
                                config.tolerance("identity", 1e-9),
                                "exact:view-ensemble"))
