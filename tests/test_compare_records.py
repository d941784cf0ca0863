"""tools/compare_records.differences: the field-by-field record comparison
behind every claim that two trees produce the same records."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_records.py"
_SPEC = importlib.util.spec_from_file_location("compare_records", _PATH)
compare_records = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_records)
differences = compare_records.differences


def _row(name, empirical=0.0, verdict="PASS"):
    return {"name": name, "empirical": empirical, "verdict": verdict}


@pytest.fixture
def record():
    return {"artifact_version": "0.3.0", "config": {"seed": 7},
            "rows": [_row("a"), _row("b", 0.5), _row("c", 1.0)]}


def _with_rows(record, rows):
    return dict(record, rows=rows)


def test_identical_records_have_no_differences(record):
    assert differences(record, dict(record)) == []


def test_a_changed_row_field_is_named_by_row_and_field(record):
    new = _with_rows(record, [_row("a"), _row("b", 0.25, "FAIL"), _row("c", 1.0)])
    assert differences(record, new) == ["row b empirical: 0.5 -> 0.25 (relative 0.5)",
                                        "row b verdict: 'PASS' -> 'FAIL'"]


def test_a_last_bits_float_change_shows_its_relative_size(record):
    old = _with_rows(record, [_row("a", 0.024293957279303217)])
    new = _with_rows(record, [_row("a", 0.024293957279303058)])
    assert differences(old, new) == [
        "row a empirical: 0.024293957279303217 -> 0.024293957279303058 (relative 6.6e-15)"]


def test_a_change_from_zero_is_infinitely_relative(record):
    new = _with_rows(record, [_row("a", 1e-17), _row("b", 0.5), _row("c", 1.0)])
    assert differences(record, new) == ["row a empirical: 0.0 -> 1e-17 (relative inf)"]


def test_a_non_numeric_change_has_no_relative_size(record):
    new = _with_rows(record, [_row("a"), _row("b", None), _row("c", 1.0, "FAIL")])
    assert differences(record, new) == ["row b empirical: 0.5 -> None",
                                        "row c verdict: 'PASS' -> 'FAIL'"]


def test_an_added_row(record):
    new = _with_rows(record, record["rows"] + [_row("d")])
    assert differences(record, new) == ["row d: added"]


def test_a_removed_row(record):
    new = _with_rows(record, record["rows"][:2])
    assert differences(record, new) == ["row c: removed"]


def test_the_same_rows_in_another_order(record):
    new = _with_rows(record, list(reversed(record["rows"])))
    assert differences(record, new) == ["rows: same rows in a different order"]


def test_a_changed_top_level_field(record):
    new = dict(record, artifact_version="0.4.0")
    assert differences(record, new) == ["artifact_version: '0.3.0' -> '0.4.0'"]


def test_an_added_top_level_field(record):
    new = dict(record, stream_version=4)
    assert differences(record, new) == ["stream_version: None -> 4"]
