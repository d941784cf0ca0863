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


def test_pipeline_evaluates_each_branch_once_per_prover(monkeypatch):
    from qpzk.compilers.public_coin import PublicCoinProtocol

    calls = []
    branch_value = PublicCoinProtocol.branch_value

    def counting_branch_value(self, strat, b):
        calls.append((strat.name, b))
        return branch_value(self, strat, b)

    monkeypatch.setattr(PublicCoinProtocol, "branch_value", counting_branch_value)
    run_experiment(ExperimentConfig(kind="pipeline", seed=5, trials=50))
    # Two branches for the honest row and two for each of the three cheats,
    # however many trials are sampled.
    assert len(calls) == 8
    assert len(set(calls)) == 8


def test_pipeline_cheat_rows_pinned_at_seed_7():
    record = run_experiment(ExperimentConfig(kind="pipeline", seed=7))
    cheats = [row for row in record.rows if row.name.startswith("pipeline-cheat-")]
    assert [row.empirical for row in cheats] == [0.5065, 0.686, 0.673]
    assert [row.sigma for row in cheats] == pytest.approx(
        [0.011180158646320453, 0.01041653707667828, 0.01041653707667828],
        rel=1e-12)


def test_double_open_evaluates_each_game_once(monkeypatch):
    from qpzk.core import linalg
    from qpzk.crypto import commitments

    counts = {}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("apply_to_vector", "is_unitary"):
        counting(linalg, name)
    counting(commitments, "run_double_open")

    work = []
    for trials in (50, 500):
        counts.clear()
        run_experiment(ExperimentConfig(kind="double-open", seed=5, trials=trials))
        # Three rows, one game each per trial, drawn through the module global.
        assert counts.pop("run_double_open") == 3 * trials
        work.append(counts.copy())
    # The kernel and validation work is the same however many trials are drawn.
    assert work[0] == work[1]
    assert work[0]["apply_to_vector"] > 0


def test_double_open_rows_pinned_at_seed_7():
    record = run_experiment(ExperimentConfig(kind="double-open", seed=7, trials=2000))
    assert [row.empirical for row in record.rows] == [
        0.0010000000000000009, 0.016000000000000014, 1.0]
    assert [row.sigma for row in record.rows[:2]] == [
        0.011180339887498949, 0.011180339887498949]
    assert [row.verdict for row in record.rows] == ["PASS", "PASS", "PASS"]
