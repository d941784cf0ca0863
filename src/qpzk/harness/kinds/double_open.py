"""double-open: the canonical commitment's hiding, as win rates of the
double-opening game, and a broken scheme that the game catches."""

from __future__ import annotations

import numpy as np

from qpzk.crypto.commitments import (
    bell_ancilla_scheme,
    double_open_win_rate,
    identity_scheme,
    load_scheme,
    random_guess_adversary,
    read_swap_target_adversary,
    tamper_and_read_adversary,
)
from qpzk.harness.config import ExperimentConfig
from qpzk.harness.experiments import _stream
from qpzk.harness.records import ExperimentRecord, threshold_row, upper_bound_row


def run(config: ExperimentConfig, record: ExperimentRecord) -> None:
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
