"""Configuration validation, record persistence, determinism, CLI exit codes."""

import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

import qpzk
from qpzk import pqma, uhlmann
from qpzk.cli import main
from qpzk.compilers.examples import copier_base
from qpzk.core import MixedState, PureState, RegisterLayout
from qpzk.crypto.commitments import bell_ancilla_scheme, scheme_to_json
from qpzk.errors import ConfigError
from qpzk.harness.config import (
    _DEFAULT_PARAMS,
    _INSTANCE_KEYS,
    EXPERIMENT_KINDS,
    ExperimentConfig,
    config_from_dict,
    load_config,
)
from qpzk.harness.records import (
    ExperimentRecord,
    MetricRow,
    equality_row,
    load_record,
    save_record,
    upper_bound_row,
)
from qpzk.harness.experiments import _load_base, kind_module, run_experiment
from qpzk.harness.report import report
from qpzk.protocol import Strategy, protocol_to_json
from qpzk.serialize import complex_matrix_to_json


class TestConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            ExperimentConfig(kind="quantum-stuff")

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            config_from_dict({"kind": "mac", "bananas": 3})

    def test_bad_trials_rejected(self):
        with pytest.raises(ConfigError, match="trials"):
            ExperimentConfig(kind="mac", trials=0)

    def test_schema_version_checked(self):
        with pytest.raises(ConfigError, match="schema_version"):
            config_from_dict({"schema_version": 99, "kind": "mac"})

    def test_defaults_merged_with_overrides(self):
        cfg = ExperimentConfig(kind="pqma", params={"q": 3})
        assert cfg.param("q") == 3
        assert cfg.param("p") == 8  # default preserved

    @pytest.mark.parametrize("params,name", [
        ({"traps": "x"}, "params.traps"),
        ({"traps": 2.7}, "params.traps"),
        ({"traps": True}, "params.traps"),
        ({"trapz": 2}, "params.trapz"),
    ])
    def test_bad_param_rejected(self, params, name):
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig(kind="mac", params=params)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -float("inf"), 10 ** 400])
    def test_float_param_must_be_finite(self, delta):
        with pytest.raises(ConfigError, match="params.delta"):
            ExperimentConfig(kind="uhlmann", params={"delta": delta})

    def test_float_param_stores_an_int_as_a_float(self):
        cfg = ExperimentConfig(kind="uhlmann", params={"delta": 3})
        assert type(cfg.param("delta")) is float and cfg.param("delta") == 3.0
        assert cfg.echo() == ExperimentConfig(kind="uhlmann", params={"delta": 3.0}).echo()

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_every_default_param_is_read(self, kind):
        source = inspect.getsource(kind_module(kind))
        for name in _DEFAULT_PARAMS[kind]:
            assert f'config.param("{name}")' in source, name
        # Every instance key the config accepts for the kind is read, and no other.
        if "_load_base(config" in source:
            source += inspect.getsource(_load_base)
        read = set(re.findall(r'config\.instances\["(\w+)"\]', source))
        assert read == set(_INSTANCE_KEYS.get(kind, ()))

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "mac", "seed": 7, "trials": 5}))
        cfg = load_config(str(path))
        assert cfg.kind == "mac" and cfg.seed == 7

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/cfg.json")


class TestRows:
    def test_vacuous_bound(self):
        row = upper_bound_row("x", 0.9, 1.2, 0.0, "formula:test")
        assert row.verdict == "VACUOUS"

    def test_upper_bound_sigma_slack(self):
        assert upper_bound_row("x", 0.52, 0.5, 0.01, "o:t").verdict == "PASS"
        assert upper_bound_row("x", 0.54, 0.5, 0.01, "o:t").verdict == "FAIL"

    def test_source_tag_required(self):
        with pytest.raises(ValueError):
            MetricRow("x", 1.0, 1.0, 0.0, "PASS", "")


class TestRecords:
    def _record(self):
        rec = ExperimentRecord(config_echo={"kind": "mac", "seed": 1})
        rec.add(equality_row("a", 1.0, 1.0, 1e-9, "exact:test"))
        rec.add(upper_bound_row("b", 0.4, 0.5, 0.01, "formula:test"))
        rec.wall_clock_seconds = 1.5
        return rec

    def test_json_roundtrip(self, tmp_path):
        rec = self._record()
        path = tmp_path / "rec.json"
        save_record(rec, str(path), "json")
        back = load_record(str(path))
        assert back.rows[0].name == "a"
        assert back.rows[1].verdict == "PASS"

    def test_csv_flat_rows(self):
        csv_text = self._record().to_csv()
        lines = csv_text.strip().split("\n")
        assert lines[0].startswith("kind,seed,row")
        assert len(lines) == 3
        assert "formula:test" in lines[2]

    def test_comparable_bytes_strip_wall_clock(self):
        a, b = self._record(), self._record()
        b.wall_clock_seconds = 99.0
        assert a.comparable_bytes() == b.comparable_bytes()

    def test_artifact_version_is_the_project_version(self):
        # A record's artifact_version names its stream, so a stream change
        # bumps both. tomllib is missing on Python 3.10, hence the regex.
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        assert re.search(r'^version = "([^"]+)"$', text, re.M).group(1) == qpzk.__version__


class TestDeterminism:
    @pytest.mark.parametrize("kind,trials,params", [
        ("mac", 1, {}),
        ("double-open", 200, {}),
        ("uhlmann", 50, {}),
        ("collapse", 1, {"bases": 2, "oracle_restarts": 3, "oracle_iters": 60}),
        ("public-coin", 300, {"bases": 2, "oracle_restarts": 3, "oracle_iters": 60}),
        ("pipeline", 60, {}),
        ("core-check", 1, {"samples": 50}),
        ("pqma", 200, {}),
        ("zk", 200, {}),
    ], ids=["mac-1", "double-open-200", "uhlmann-50", "collapse-1",
            "public-coin-300", "pipeline-60", "core-check-50", "pqma-200", "zk-200"])
    def test_same_seed_identical_records(self, kind, trials, params, monkeypatch):
        """The second run builds every state and strategy the package
        computes through the checking constructors, so a computed state that
        is not a valid state, or a computed strategy that is not unitary,
        fails it."""
        cfg = ExperimentConfig(kind=kind, seed=11, trials=trials, params=params)
        first = run_experiment(cfg)
        monkeypatch.setattr(PureState, "computed", PureState)
        monkeypatch.setattr(MixedState, "computed", MixedState)
        monkeypatch.setattr(Strategy, "computed", Strategy)
        second = run_experiment(cfg)
        assert first.comparable_bytes() == second.comparable_bytes()

    def test_different_seeds_differ(self):
        a = run_experiment(ExperimentConfig(kind="double-open", seed=1, trials=300))
        b = run_experiment(ExperimentConfig(kind="double-open", seed=2, trials=300))
        values_a = [r.empirical for r in a.rows]
        values_b = [r.empirical for r in b.rows]
        assert values_a != values_b


class TestReport:
    def test_all_pass_exit_zero(self):
        rec = ExperimentRecord(config_echo={"kind": "mac"})
        rec.add(equality_row("a", 1.0, 1.0, 1e-9, "exact:test"))
        summary = report([rec])
        assert summary.exit_code == 0
        assert summary.failed == 0

    def test_fail_exit_one_names_source(self):
        rec = ExperimentRecord(config_echo={"kind": "mac"})
        rec.add(equality_row("bad", 0.0, 1.0, 1e-9, "formula:broken"))
        summary = report([rec])
        assert summary.exit_code == 1
        assert any("formula:broken" in s for s in summary.failing_sources)

    def test_vacuous_counts_as_warning_not_failure(self):
        rec = ExperimentRecord(config_echo={"kind": "pqma"})
        rec.add(upper_bound_row("v", 0.9, 1.5, 0.0, "formula:test"))
        summary = report([rec])
        assert summary.exit_code == 0
        assert summary.vacuous == 1
        assert any("vacuous" in line for line in summary.lines)


def _copier_json_with(**fields) -> str:
    data = protocol_to_json(copier_base())
    data.update(fields)
    return json.dumps(data)


def _bell_scheme_json_with(**fields) -> str:
    data = scheme_to_json(bell_ancilla_scheme())
    data.update(fields)
    return json.dumps(data)


# The instance files the bad-instance cases start from, by kind.
_INSTANCE_JSON = {"pqma": pqma.instance_to_json(pqma.instance_check_family("yes")),
                  "uhlmann": uhlmann.instance_to_json(uhlmann.bell_flip_instance())}


def _instance_json_with(kind: str, **fields) -> str:
    return json.dumps(dict(_INSTANCE_JSON[kind], **fields))


# Every file the bad-file cases start from, by kind, as read back from JSON.
_FILE_JSON = json.loads(json.dumps(dict(_INSTANCE_JSON,
                                        collapse=protocol_to_json(copier_base()),
                                        **{"double-open": scheme_to_json(bell_ancilla_scheme())})))


def _retyped(value, base) -> bool:
    """Whether some entry of a JSON value has another type than the entry
    in the same place of base: lists go element by element, objects key by
    key, and a bool is no number."""
    if isinstance(value, list) and isinstance(base, list):
        return any(_retyped(v, b) for v, b in zip(value, base))
    if isinstance(value, dict) and isinstance(base, dict):
        return any(_retyped(value[k], base[k]) for k in value.keys() & base.keys())
    return type(value) is not type(base)


class TestCli:
    def test_mac_run_and_report(self, tmp_path, capsys):
        out = tmp_path / "mac.json"
        code = main(["mac", "--seed", "3", "--out", str(out)])
        assert code == 0
        assert out.exists()
        code = main(["report", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "pass:" in text

    def test_csv_output(self, tmp_path):
        out = tmp_path / "rec.csv"
        code = main(["double-open", "--seed", "3", "--trials", "200",
                     "--out", str(out), "--format", "csv"])
        assert code == 0
        assert out.read_text().startswith("kind,seed,row")

    def test_config_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "nope"}))
        assert main(["mac", "--config", str(bad)]) == 2

    def test_kind_mismatch_exit_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "mac"}))
        assert main(["uhlmann", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("kind,instances,body", [
        ("collapse", {"base_protocol": "junk.txt"}, "not JSON"),
        ("collapse", {"base_protocol": "junk.txt"},
         _copier_json_with(registers={"W": 1, "M": 1})),
        ("collapse", {"base_protocol": "junk.txt"},
         _copier_json_with(registers={"R": "one", "W": 1, "M": 1})),
        ("collapse", {"base_protocol": "junk.txt"},
         _copier_json_with(registers={"R": 0, "W": 1, "M": 1})),
        ("collapse", {"base_protocol": "junk.txt"},
         _copier_json_with(verifier_unitaries=[complex_matrix_to_json(2 * np.eye(4))] * 2)),
        ("collapse", {"base_protocol": "junk.txt"},
         _copier_json_with(verifier_unitaries=[complex_matrix_to_json(np.eye(2))] * 2)),
        ("double-open", {"scheme": "missing.json"}, "not JSON"),
        ("double-open", {"scheme": "junk.txt"},
         _bell_scheme_json_with(com=complex_matrix_to_json(2 * np.eye(8)))),
        ("double-open", {"scheme": "junk.txt"}, _bell_scheme_json_with(c_wires=[0], d_wires=[1])),
        ("double-open", {"scheme": "junk.txt"}, _bell_scheme_json_with(message_qubits="one")),
        ("double-open", {"scheme": "junk.txt"},
         _bell_scheme_json_with(com=complex_matrix_to_json(np.eye(4)))),
        ("double-open", {"scheme": "junk.txt"},
         _bell_scheme_json_with(message_qubits=1, ancilla_qubits=-1,
                                com=complex_matrix_to_json(np.eye(1)), c_wires=[], d_wires=[])),
        ("double-open", {"scheme": "junk.txt"},
         _bell_scheme_json_with(message_qubits=0, ancilla_qubits=0,
                                com=complex_matrix_to_json(np.eye(1)), c_wires=[], d_wires=[])),
        ("pqma", {"instance": "junk.txt"},
         _instance_json_with("pqma", verifier_unitary=complex_matrix_to_json(2 * np.eye(4)))),
        ("pqma", {"instance": "junk.txt"},
         _instance_json_with("pqma", verifier_unitary=complex_matrix_to_json(np.eye(2)))),
        ("uhlmann", {"instance": "junk.txt"}, _instance_json_with("uhlmann", r_qubits="x")),
        ("uhlmann", {"instance": "junk.txt"},
         _instance_json_with("uhlmann", c_unitary=complex_matrix_to_json(2 * np.eye(4)))),
        ("uhlmann", {"instance": "junk.txt"}, _instance_json_with("uhlmann", r_qubits=1.9)),
        ("uhlmann", {"instance": "junk.txt"}, _instance_json_with("uhlmann", s_qubits=True)),
        ("collapse", {"base_protocol": "junk.txt"},
         _copier_json_with(registers={"R": 1.7, "W": 1, "M": 1})),
        ("collapse", {"base_protocol": "junk.txt"}, _copier_json_with(rounds="2")),
        ("double-open", {"scheme": "junk.txt"}, _bell_scheme_json_with(message_qubits=True)),
        ("double-open", {"scheme": "junk.txt"}, _bell_scheme_json_with(ancilla_qubits=2.5)),
        ("double-open", {"scheme": "junk.txt"}, _bell_scheme_json_with(name=5)),
        ("double-open", {"scheme": "junk.txt"}, _bell_scheme_json_with(c_wires=[0.0, 1.0])),
        ("pqma", {"instance": "junk.txt"}, _instance_json_with("pqma", completeness_error=True)),
        ("pqma", {"instance": "junk.txt"},
         _instance_json_with("pqma", completeness_error=float("nan"))),
        ("pqma", {"instance": "junk.txt"}, _instance_json_with("pqma", completeness_error=2.0)),
        ("pqma", {"instance": "junk.txt"}, _instance_json_with("pqma", completeness_error=-0.5)),
        ("uhlmann", {"instance": "junk.txt"}, _instance_json_with("uhlmann", delta=float("nan"))),
        ("uhlmann", {"instance": "junk.txt"}, _instance_json_with("uhlmann", delta=float("inf"))),
        ("uhlmann", {"instance": "junk.txt"}, _instance_json_with("uhlmann", delta=0.0)),
        ("uhlmann", {"instance": "junk.txt"}, _instance_json_with("uhlmann", delta=0.2)),
        ("double-open", None, json.dumps({"kind": "double-open", "seed": -3})),
        ("double-open", None, json.dumps({"kind": "double-open", "seed": "abc"})),
        ("uhlmann", None, json.dumps({"kind": "uhlmann", "seed": 7.5})),
        ("uhlmann", None, json.dumps({"kind": "uhlmann", "seed": "7"})),
        ("uhlmann", None, json.dumps({"kind": "uhlmann", "seed": True})),
        ("uhlmann", None, json.dumps({"kind": "uhlmann", "out": 7})),
        ("uhlmann", None, json.dumps({"kind": "uhlmann", "out": True})),
        ("double-open", None, json.dumps({"kind": "double-open", "trials": True})),
        ("mac", None, json.dumps({"kind": "mac", "params": {"traps": "x"}})),
        ("mac", None, json.dumps({"kind": "mac", "params": {"traps": 2.7}})),
        ("mac", None, json.dumps({"kind": "mac", "params": {"trapz": 2}})),
        ("collapse", None, json.dumps({"kind": "collapse", "params": {"bases": 0}})),
        ("public-coin", None, json.dumps({"kind": "public-coin", "params": {"bases": 0}})),
        ("collapse", None, json.dumps({"kind": "collapse", "params": {"oracle_restarts": 0}})),
        ("uhlmann", None, json.dumps({"kind": "uhlmann", "params": {"r_qubits": 0}})),
        ("uhlmann", None, json.dumps({"kind": "uhlmann", "params": {"instances": 0}})),
        ("uhlmann", None, json.dumps({"kind": "uhlmann", "params": {"delta": 0.25}})),
        ("core-check", None, json.dumps({"kind": "core-check", "params": {"samples": -5}})),
        ("zk", None, json.dumps({"kind": "zk", "trials": 5, "params": {"reps": 10}})),
        ("mac", None, json.dumps({"kind": "mac", "params": [1]})),
        ("mac", None, json.dumps({"kind": "mac", "tolerances": [1]})),
        ("mac", None, json.dumps({"kind": "mac", "tolerances": {"identity": "x"}})),
        ("mac", None, json.dumps({"kind": "mac", "tolerances": {"identiy": 1e-3}})),
        ("mac", None, json.dumps({"kind": "mac", "tolerances": {"identity": float("nan")}})),
        ("mac", None, json.dumps({"kind": "mac", "tolerances": {"identity": -1e-9}})),
        ("mac", None, json.dumps({"kind": "mac", "instances": {"x": "y"}})),
        ("pqma", None, json.dumps({"kind": "pqma", "instances": {"instance": 2}})),
        ("pqma", None, json.dumps({"kind": "pqma", "params": {"n": 2}})),
        ("collapse", None, json.dumps({"kind": "collapse", "instances": {"scheme": "s.json"}})),
        ("report", None, "not JSON"),
        ("report", None, json.dumps({"config": {}})),
        ("report", None, json.dumps({"config": {}, "rows": [{"name": "x"}]})),
        ("report", None, json.dumps([])),
    ], ids=["collapse-base-not-json", "collapse-base-registers-missing-R",
            "collapse-base-register-size-not-a-number", "collapse-base-register-size-zero",
            "collapse-base-not-unitary", "collapse-base-wrong-shape",
            "double-open-scheme-missing", "double-open-scheme-not-unitary",
            "double-open-scheme-wires-not-partition", "double-open-scheme-qubits-not-a-number",
            "double-open-scheme-wrong-shape", "double-open-scheme-negative-ancillas",
            "double-open-scheme-no-wires",
            "pqma-instance-not-unitary", "pqma-instance-wrong-shape",
            "uhlmann-instance-qubits-not-a-number", "uhlmann-instance-not-unitary",
            "uhlmann-instance-qubits-a-float", "uhlmann-instance-qubits-a-bool",
            "collapse-base-register-size-a-float", "collapse-base-rounds-a-string",
            "double-open-scheme-qubits-a-bool", "double-open-scheme-ancillas-a-float",
            "double-open-scheme-name-a-number", "double-open-scheme-wires-floats",
            "pqma-instance-completeness-error-a-bool",
            "pqma-instance-completeness-error-nan", "pqma-instance-completeness-error-two",
            "pqma-instance-completeness-error-negative",
            "uhlmann-instance-delta-nan", "uhlmann-instance-delta-infinite",
            "uhlmann-instance-delta-zero", "uhlmann-instance-delta-no-round",
            "double-open-config-negative-seed", "double-open-config-seed-not-a-number",
            "uhlmann-config-seed-a-float", "uhlmann-config-seed-a-string",
            "uhlmann-config-seed-a-bool", "uhlmann-config-out-a-number",
            "uhlmann-config-out-a-bool", "double-open-config-trials-a-bool",
            "mac-config-param-not-a-number", "mac-config-param-not-an-integer",
            "mac-config-unknown-param",
            "collapse-config-no-bases", "public-coin-config-no-bases",
            "collapse-config-no-oracle-restarts", "uhlmann-config-no-r-qubits",
            "uhlmann-config-no-instances", "uhlmann-config-delta-no-round",
            "core-check-config-negative-samples",
            "zk-config-fewer-trials-than-reps",
            "mac-config-params-not-an-object", "mac-config-tolerances-not-an-object",
            "mac-config-tolerance-not-a-number", "mac-config-unknown-tolerance",
            "mac-config-tolerance-nan", "mac-config-tolerance-negative",
            "mac-config-unknown-instance", "pqma-config-instance-not-a-path",
            "pqma-config-removed-param-n",
            "collapse-config-instance-of-another-kind",
            "report-record-not-json",
            "report-record-without-rows", "report-row-without-empirical",
            "report-record-is-a-list"])
    def test_unreadable_file_exit_two(self, tmp_path, capsys, kind, instances, body):
        junk = tmp_path / "junk.txt"
        junk.write_text(body)
        if kind == "report":
            argv = ["report", str(junk)]
        elif instances is None:
            argv = [kind, "--config", str(junk)]  # the file is the config itself
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({
                "kind": kind,
                "instances": {k: str(tmp_path / v) for k, v in instances.items()},
            }))
            argv = [kind, "--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        if instances is None and kind != "report":
            data = json.loads(body)
            for field in ("seed", "trials"):
                value = data.get(field, 1)
                if isinstance(value, bool) or not isinstance(value, int):
                    assert f"{field}:" in err
            if not isinstance(data.get("out", ""), str):
                assert "out:" in err
            for field in ("params", "tolerances", "instances"):
                value = data.get(field, {})
                if not isinstance(value, dict):
                    assert f"{field}:" in err
                for name in value if isinstance(value, dict) else ():
                    assert f"{field}.{name}" in err
        if instances is not None and kind in _FILE_JSON and body.startswith("{"):
            for name, value in json.loads(body).items():
                base = _FILE_JSON[kind][name]
                if _retyped(value, base) or kind in _INSTANCE_JSON and value != base:
                    assert name in err

    def test_pqma_reads_the_instance_size_from_its_file(self, tmp_path):
        # A two-qubit instance |11> whose verifier reads the witness |1>.
        inst = pqma.PqmaInstance(PureState.from_bits(RegisterLayout.single("A", 2), "11"),
                                 PureState.from_bits(RegisterLayout.single("B", 1), "1"),
                                 np.eye(8))
        pqma.save_instance(inst, tmp_path / "inst.json")
        cfg, out = tmp_path / "cfg.json", tmp_path / "rec.json"
        cfg.write_text(json.dumps({"kind": "pqma",
                                   "instances": {"instance": str(tmp_path / "inst.json")}}))
        assert main(["pqma", "--config", str(cfg), "--out", str(out)]) == 0
        rows = {row.name: row for row in load_record(str(out)).rows}
        assert rows["small-copy-bound"].empirical == pqma.soundness_bound(8, 2, 2)

    def test_zk_trials_flag_below_reps_exit_two(self, capsys):
        assert main(["zk", "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert "trials" in err and "params.reps" in err

    def test_negative_seed_flag_exit_two(self, capsys):
        assert main(["double-open", "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_cap_exceeded_exit_three(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QPZK_QUBIT_CAP", "3")
        assert main(["uhlmann", "--seed", "1", "--trials", "10"]) == 3
        # Every stage's breach is a resource error, whichever layout meets it
        # first: the collapsed verifier registers at 5, the standard-form
        # cast at 11, double-open's 4-qubit game at 2, the zk view's 4-qubit
        # block of two iterations at 3.
        runs = [(kind, "2") for kind in EXPERIMENT_KINDS] + [("collapse", "5"),
                                                             ("pipeline", "11"),
                                                             ("zk", "3")]
        for kind, cap in runs:
            monkeypatch.setenv("QPZK_QUBIT_CAP", cap)
            assert main([kind, "--seed", "7"]) == 3, (kind, cap)

    def test_seed_override_changes_record(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["double-open", "--seed", "1", "--trials", "200", "--out", str(out1)])
        main(["double-open", "--seed", "9", "--trials", "200", "--out", str(out2)])
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        assert a["config"]["seed"] == 1 and b["config"]["seed"] == 9
