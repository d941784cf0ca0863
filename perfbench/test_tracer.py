"""Tests of the benchmark's span wrappers and metric names.

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ladder  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _wrapped_names():
    """(module, attribute) of every qpzk module attribute that is a wrapper."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("qpzk"):
            continue
        for name, value in vars(mod).items():
            if hasattr(value, "perfbench_span"):
                found.append((mod_name, name))
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if hasattr(member, "perfbench_span"):
                        found.append((mod_name, f"{name}.{attr}"))
    return found


@pytest.fixture
def installed():
    tr = tracer.Tracer()
    inst = tracer.install(tr)
    try:
        yield tr
    finally:
        inst.uninstall()


def test_wrappers_patch_every_import_site(installed):
    from qpzk.core import linalg, operators

    # operators binds is_unitary by name, linalg defines it.
    assert hasattr(operators.is_unitary, "perfbench_span")
    assert hasattr(linalg.is_unitary, "perfbench_span")
    assert hasattr(sys.modules["qpzk.cli"].run_experiment, "perfbench_span")
    assert hasattr(sys.modules["qpzk.harness"].run_experiment, "perfbench_span")
    operators.UnitaryOp(np.eye(2, dtype=complex), ("A",))
    linalg.is_unitary(np.eye(2, dtype=complex))
    # The check inside UnitaryOp belongs to the construction span.
    assert installed.calls("core.validate.unitary") == 2


def test_wrappers_are_removed_after_the_run():
    from qpzk.core import linalg, operators

    original = linalg.apply_to_vector
    inst = tracer.install(tracer.Tracer())
    assert _wrapped_names()
    inst.uninstall()
    assert _wrapped_names() == []
    assert linalg.apply_to_vector is original
    assert operators.is_unitary is linalg.is_unitary


def test_self_time_subtracts_the_union_of_child_intervals():
    frame = ["parent", 0.0, 0.0, float("-inf"), float("-inf")]
    for start, stop in ((1.0, 3.0), (2.0, 4.0), (2.5, 3.5), (6.0, 7.0)):
        tracer.add_child_interval(frame, start, stop)
    # Union of [1,4] and [6,7]: 4 seconds, not the 6.0 the lengths sum to.
    assert frame[2] == pytest.approx(4.0)
    with pytest.raises(ValueError):
        tracer.add_child_interval(frame, 5.0, 5.5)


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = tracer.Tracer(clock)
    tr.begin("outer")
    clock.now = 1.0
    tr.begin("inner")
    clock.now = 3.0
    tr.end()
    clock.now = 4.0
    tr.begin("inner")
    clock.now = 4.5
    tr.begin("outer")  # recursion: inclusive time counted once
    clock.now = 5.0
    tr.end()
    tr.end()
    clock.now = 10.0
    tr.end()
    assert tr.calls("outer") == 2
    assert tr.inclusive_s("outer") == pytest.approx(10.0)
    assert tr.self_s("outer") == pytest.approx(10.0 - 3.0 + 0.5)
    assert tr.inclusive_s("inner") == pytest.approx(3.0)
    assert tr.self_s("inner") == pytest.approx(2.0 + 0.5)


def test_apply_to_vector_calls_match_a_hand_count(installed):
    from qpzk.core import RegisterLayout, UnitaryOp
    from qpzk.core.operators import H, ProjectiveMeasurement
    from qpzk.core.states import PureState, apply_unitary, measure

    layout = RegisterLayout.of(("A", 1), ("B", 1))
    state = PureState.computational(layout)
    hadamard = UnitaryOp(H, ("A",))
    for _ in range(3):
        state = apply_unitary(state, hadamard)  # 3 applications
    z_basis = ProjectiveMeasurement((np.diag([1, 0]).astype(complex),
                                     np.diag([0, 1]).astype(complex)))
    measure(state, z_basis, ("B",))  # one application per projector: 2
    assert installed.calls("core.linalg.apply_to_vector.n_le6") == 5
    assert installed.calls("core.validate.unitary") == 1
    m = installed.metrics()
    assert m["core.linalg.apply_to_vector.n_le6.calls"] == 5
    assert m["core.linalg.gflop_computed"] == pytest.approx(5 * 8 * 2 * 4 / 1e9)


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    reported = list(tracer.Tracer().metrics()) + ["tracing.overhead_s"] + ladder.metric_names()
    assert per_layer == reported
    for m in spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
