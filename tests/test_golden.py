"""Golden records: every kind at seeds 7 and 11, default config, gives the
record committed under tests/golden/, wall clock aside, byte for byte.

A change that moves a record regenerates the files with
`python tools/compare_records.py --write-golden` and lists each changed
field in CHANGES.md. The oracle rows' last bits come from LAPACK, so the
files hold the numpy version and BLAS build they were made with, and
another build fails here by name rather than passing unchecked."""

import importlib.util
import json
from pathlib import Path

import pytest

from qpzk.harness.config import EXPERIMENT_KINDS, ExperimentConfig
from qpzk.harness.experiments import run_experiment

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_records.py"
_SPEC = importlib.util.spec_from_file_location("compare_records", _PATH)
compare_records = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_records)


def test_golden_records_were_made_with_this_numpy_and_blas():
    made = json.loads((compare_records.GOLDEN / "provenance.json").read_text())
    here = compare_records.provenance()
    assert made == here, (f"golden records were made with {made}, this is {here}; "
                          "compare on the build they were made with, or regenerate them")


@pytest.mark.parametrize("seed", compare_records.SEEDS)
@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_record_equals_its_golden_file(kind, seed):
    golden = json.loads(compare_records.golden_path(kind, seed).read_text())
    record = run_experiment(ExperimentConfig(kind=kind, seed=seed)).comparable_bytes()
    lines = compare_records.differences(golden, json.loads(record))
    assert record == json.dumps(golden, sort_keys=True).encode(), \
        "\n".join(lines or ["same values, different bytes"])
