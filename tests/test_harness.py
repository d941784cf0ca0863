"""Configuration validation, record persistence, determinism, CLI exit codes."""

import json

import numpy as np
import pytest

from qpzk.cli import main
from qpzk.errors import ConfigError
from qpzk.harness.config import ExperimentConfig, config_from_dict, load_config
from qpzk.harness.records import (
    ExperimentRecord,
    MetricRow,
    equality_row,
    load_record,
    record_from_dict,
    save_record,
    upper_bound_row,
)
from qpzk.harness.experiments import run_experiment
from qpzk.harness.report import report


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


class TestDeterminism:
    @pytest.mark.parametrize("kind,trials", [("mac", 1), ("double-open", 200),
                                             ("uhlmann", 50)])
    def test_same_seed_identical_records(self, kind, trials):
        cfg = ExperimentConfig(kind=kind, seed=11, trials=trials)
        first = run_experiment(cfg)
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

    @pytest.mark.parametrize("kind,instances", [
        ("collapse", {"base_protocol": "junk.txt"}),
        ("double-open", {"scheme": "missing.json"}),
        ("report", None),
    ], ids=["collapse-base-not-json", "double-open-scheme-missing",
            "report-record-not-json"])
    def test_unreadable_file_exit_two(self, tmp_path, capsys, kind, instances):
        junk = tmp_path / "junk.txt"
        junk.write_text("not JSON")
        if instances is None:
            argv = ["report", str(junk)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({
                "kind": kind,
                "instances": {k: str(tmp_path / v) for k, v in instances.items()},
            }))
            argv = [kind, "--config", str(cfg)]
        assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_cap_exceeded_exit_three(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QPZK_QUBIT_CAP", "3")
        assert main(["uhlmann", "--seed", "1", "--trials", "10"]) == 3

    def test_seed_override_changes_record(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["double-open", "--seed", "1", "--trials", "200", "--out", str(out1)])
        main(["double-open", "--seed", "9", "--trials", "200", "--out", str(out2)])
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        assert a["config"]["seed"] == 1 and b["config"]["seed"] == 9
