"""End-to-end smoke of every experiment kind at reduced scale."""

import pytest

from qpzk.harness import experiments
from qpzk.harness.config import ExperimentConfig
from qpzk.harness.experiments import run_experiment


@pytest.mark.parametrize("kind,trials,params", [
    ("core-check", 1, {"samples": 60}),
    ("pqma", 300, {}),
    ("collapse", 1, {"bases": 2, "oracle_restarts": 3, "oracle_iters": 60}),
    ("public-coin", 300, {"bases": 2, "oracle_restarts": 3, "oracle_iters": 60}),
    ("zk", 1500, {}),
    ("double-open", 800, {}),
    ("mac", 1, {}),
    ("uhlmann", 200, {"instances": 5}),
])
def test_experiment_kind_runs_clean(kind, trials, params):
    cfg = ExperimentConfig(kind=kind, seed=5, trials=trials, params=params)
    record = run_experiment(cfg)
    assert record.rows
    assert not record.failed
    assert all(row.source for row in record.rows)


def test_pipeline_experiment_runs_clean():
    cfg = ExperimentConfig(kind="pipeline", seed=5, trials=60)
    record = run_experiment(cfg)
    assert not record.failed
    names = [row.name for row in record.rows]
    assert "pipeline-honest-acceptance" in names
    assert any(n.startswith("composite-bound") for n in names)
    assert any(n.startswith("pipeline-cheat-") for n in names)


def test_pipeline_cheat_rows_draw_from_their_own_substreams(monkeypatch):
    requested = []
    stream = experiments._stream

    def recording_stream(config, substream):
        requested.append(substream)
        return stream(config, substream)

    monkeypatch.setattr(experiments, "_stream", recording_stream)
    run_experiment(ExperimentConfig(kind="pipeline", seed=5, trials=5))
    # 0: oracle, 1: cheat strategies, 2-4: one sampling stream per cheat row.
    assert requested == [0, 1, 2, 3, 4]
