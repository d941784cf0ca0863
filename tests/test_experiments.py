"""End-to-end smoke of every experiment kind at reduced scale."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qpzk.harness import experiments
from qpzk.harness.config import ExperimentConfig
from qpzk.harness.experiments import run_experiment
from qpzk.harness.records import load_record, record_from_dict

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _child_env(**values):
    """This environment with src/ on PYTHONPATH and no OPENBLAS_NUM_THREADS
    (importing qpzk.cli in this process sets it), then `values` set."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(values)
    return env


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
    # Every record the package writes reads back, through JSON, to itself.
    assert record_from_dict(json.loads(record.to_json())).comparable_bytes() == \
        record.comparable_bytes()


def test_pipeline_experiment_runs_clean():
    cfg = ExperimentConfig(kind="pipeline", seed=5, trials=60)
    record = run_experiment(cfg)
    assert not record.failed
    assert record_from_dict(json.loads(record.to_json())).comparable_bytes() == \
        record.comparable_bytes()
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

    # Wherever _stream is bound: the shared helpers and the kind's module.
    for module in (experiments, experiments.kind_module("pipeline")):
        monkeypatch.setattr(module, "_stream", recording_stream)
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
    assert [row.empirical for row in cheats] == [0.4795, 0.691, 0.699]
    assert [row.sigma for row in cheats] == pytest.approx(
        [0.011180158646320453, 0.01041653707667828, 0.01041653707667828],
        rel=1e-12)


def test_double_open_evaluates_each_game_once(monkeypatch):
    from qpzk.core import linalg, operators
    from qpzk.crypto import commitments

    counts = {}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(linalg, "apply_to_vector")
    # The one unitarity check reads is_unitary through operators.
    counting(operators, "is_unitary")
    counting(commitments, "run_double_open")

    work = []
    for trials in (50, 500):
        counts.clear()
        run_experiment(ExperimentConfig(kind="double-open", seed=5, trials=trials))
        # Three rows, each drawing all its trials in one call through the
        # module global.
        assert counts.pop("run_double_open") == 3
        work.append(counts.copy())
    # The kernel and validation work is the same however many trials are drawn.
    assert work[0] == work[1]
    assert work[0]["apply_to_vector"] > 0 and work[0]["is_unitary"] > 0


def test_public_coin_builds_simulator_transcripts_once_per_row(monkeypatch):
    from qpzk.compilers.public_coin import PublicCoinProtocol

    calls = []
    build = PublicCoinProtocol.coin_views

    def counting_build(self, sim):
        calls.append(sim)
        return build(self, sim)

    monkeypatch.setattr(PublicCoinProtocol, "coin_views", counting_build)
    params = {"bases": 1, "oracle_restarts": 1, "oracle_iters": 5}
    for trials in (20, 200):
        calls.clear()
        run_experiment(ExperimentConfig(kind="public-coin", seed=5, trials=trials,
                                        params=params))
        # simulator-transcript-acceptance and simulated-coin-bias.
        assert len(calls) == 2


def test_double_open_rows_pinned_at_seed_7():
    record = run_experiment(ExperimentConfig(kind="double-open", seed=7, trials=2000))
    assert [row.empirical for row in record.rows] == [
        0.013000000000000012, 0.0010000000000000009, 1.0]
    assert [row.sigma for row in record.rows[:2]] == [
        0.011180339887498949, 0.011180339887498949]
    assert [row.verdict for row in record.rows] == ["PASS", "PASS", "PASS"]


def test_pqma_cheat_row_pinned_at_seed_7():
    # At eight prover copies the orthogonal-copy cheat accepts with
    # probability 1/4, so the row is a binomial count over 20 trials.
    record = run_experiment(ExperimentConfig(kind="pqma", seed=7,
                                             params={"p_large": 8, "q_large": 2}))
    row = next(row for row in record.rows if row.name == "cheat-family-max-acceptance")
    assert (row.empirical, row.sigma, row.verdict) == (0.25, 0.09682458365518543, "VACUOUS")


@pytest.mark.parametrize("kind", ["double-open", "pipeline"])
def test_a_run_imports_only_the_modules_of_its_kind(kind):
    # In a fresh interpreter: the package imports load no submodule.
    code = ("import sys; from qpzk.cli import main; "
            f"main([{kind!r}, '--trials', '20']); "
            "print(' '.join(m for m in sys.modules if m.startswith('qpzk')))")
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                         text=True, check=True, timeout=300).stdout
    loaded = set(out.splitlines()[-1].split())
    assert "qpzk.cli" in loaded
    assert not loaded & {"qpzk.crypto.mac", "qpzk.compilers.coin_flip",
                         "qpzk.compilers.commit_rounds"}


@pytest.mark.parametrize("module,preset,expected", [
    ("qpzk.cli", {}, "1"),
    ("qpzk.cli", {"OPENBLAS_NUM_THREADS": "2"}, "2"),
    ("qpzk.core", {}, None),
])
def test_only_the_command_pins_blas_threads(module, preset, expected):
    # In a fresh interpreter: the command pins OpenBLAS to one thread before
    # numpy loads, unless the user set a count; a library import pins nothing.
    code = (f"import json, os, {module}; "
            "tasks = os.listdir('/proc/self/task') if os.path.isdir('/proc/self/task') else None; "
            "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), "
            "None if tasks is None else len(tasks)]))")
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(**preset), capture_output=True,
                         text=True, check=True, timeout=60).stdout
    value, threads = json.loads(out)
    assert value == expected
    if expected == "1" and threads is not None:
        assert threads == 1


@pytest.mark.parametrize("module,frozen", [("qpzk.cli", True), ("qpzk.core", False)])
def test_only_the_command_freezes_the_import_heap(module, frozen):
    # In a fresh interpreter: the command moves the modules it loads out of
    # the collector's reach; a library import leaves the collector alone.
    code = f"import gc, {module}; print(gc.get_freeze_count())"
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert (int(out) > 0) == frozen


def _modules_loaded_by(code: str) -> set:
    """The qpzk modules, and csv, loaded in a fresh interpreter by `code`."""
    code += ("; import sys; print(' '.join(m for m in sys.modules "
             "if m == 'csv' or m.split('.')[0] == 'qpzk'))")
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                         text=True, check=True, timeout=300).stdout
    return set(out.splitlines()[-1].split())


def test_a_double_open_run_loads_only_what_it_executes():
    loaded = _modules_loaded_by(
        "from qpzk.cli import main; main(['double-open', '--seed', '7'])")
    # No core.states, core.metrics, core.swap_test, harness.report, other
    # kind's runner or csv.
    assert loaded == {
        "qpzk", "qpzk.cli", "qpzk.errors", "qpzk.serialize",
        "qpzk.core", "qpzk.core.linalg", "qpzk.core.operators", "qpzk.core.registers",
        "qpzk.core.sampling", "qpzk.crypto", "qpzk.crypto.commitments",
        "qpzk.harness", "qpzk.harness.config", "qpzk.harness.experiments",
        "qpzk.harness.records", "qpzk.harness.kinds", "qpzk.harness.kinds.double_open",
    }


def test_a_pipeline_run_loads_only_what_it_executes():
    loaded = _modules_loaded_by(
        "from qpzk.cli import main; main(['pipeline', '--seed', '7'])")
    # No coin flip, commitment rounds, crypto, metrics, harness.report,
    # other kind's runner or csv.
    assert loaded == {
        "qpzk", "qpzk.cli", "qpzk.errors", "qpzk.serialize", "qpzk.optimize",
        "qpzk.protocol",
        "qpzk.core", "qpzk.core.linalg", "qpzk.core.operators", "qpzk.core.registers",
        "qpzk.core.sampling", "qpzk.core.states",
        "qpzk.compilers", "qpzk.compilers.collapse", "qpzk.compilers.examples",
        "qpzk.compilers.pipeline", "qpzk.compilers.public_coin",
        "qpzk.compilers.repetition",
        "qpzk.harness", "qpzk.harness.config", "qpzk.harness.experiments",
        "qpzk.harness.records", "qpzk.harness.kinds", "qpzk.harness.kinds.pipeline",
    }


def test_package_imports_load_no_runner_and_no_submodule():
    assert not {m for m in _modules_loaded_by("import qpzk.cli")
                if m.startswith("qpzk.harness.kinds")}
    assert _modules_loaded_by("import qpzk.core") == {"qpzk", "qpzk.core"}


def test_double_open_record_does_not_depend_on_blas_threads(tmp_path):
    records = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}.json"
        subprocess.run([sys.executable, "-m", "qpzk.cli", "double-open", "--seed", "7",
                        "--out", str(out)], env=_child_env(OPENBLAS_NUM_THREADS=threads),
                       capture_output=True, check=True, timeout=300)
        records.append(load_record(str(out)).comparable_bytes())
    assert records[0] == records[1]
