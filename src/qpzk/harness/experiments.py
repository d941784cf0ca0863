"""The harness entry point and the helpers its experiment kinds share.

Each kind's runner is `run(config, record)` in its own module under
`qpzk.harness.kinds` (the kind's name with `-` as `_`), and a run imports
that module alone. Every random draw comes from a stream keyed by (master
seed, experiment id, substream index), so records are reproducible and
independent of execution order. Bound sources are named after the evaluator
or oracle that produced the reference value.
"""

from __future__ import annotations

import importlib
import time

from qpzk.core.sampling import rng_from
from qpzk.harness.config import ExperimentConfig
from qpzk.harness.records import ExperimentRecord, upper_bound_row


def run_experiment(config: ExperimentConfig) -> ExperimentRecord:
    started = time.monotonic()
    record = ExperimentRecord(config_echo=config.echo())
    kind_module(config.kind).run(config, record)
    record.wall_clock_seconds = time.monotonic() - started
    return record


def kind_module(kind: str):
    """The module holding the runner of `kind`, imported on first use."""
    return importlib.import_module(f"qpzk.harness.kinds.{kind.replace('-', '_')}")


def _stream(config: ExperimentConfig, substream: int):
    return rng_from(config.seed, config.experiment_id, substream)


def _load_base(config: ExperimentConfig, default_builder):
    from qpzk.protocol import load_protocol

    if "base_protocol" in config.instances:
        return load_protocol(config.instances["base_protocol"])
    return default_builder()


def _oracle_excess_row(config: ExperimentConfig, name: str, bases, soundness,
                       compiled_problem, restarts: int, iters: int):
    """Row of the largest excess, over the bases, of the ascent oracle's
    value on the compiled base (compiled_problem, stream 100 + idx) over
    soundness(zeta), with zeta the oracle value of the base itself (stream
    10 + idx)."""
    from qpzk.optimize import alternating_ascent, brute_force_prover_value

    margins = []
    for idx, base in enumerate(bases):
        zeta = brute_force_prover_value(base, _stream(config, 10 + idx),
                                        restarts=restarts, iters=iters)
        bound = soundness(min(zeta, 1.0))
        res = alternating_ascent(compiled_problem(base), _stream(config, 100 + idx),
                                 restarts=restarts, iters=iters)
        margins.append(bound - res.value)
    return upper_bound_row(name, -min(margins), 0.0, 0.0, "oracle:alternating-ascent",
                           slack=1e-6)
