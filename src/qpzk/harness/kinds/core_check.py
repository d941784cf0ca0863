"""core-check: fidelity, gentle-measurement, SWAP-test, partial-trace and
trace-distance identities on random states."""

from __future__ import annotations

import numpy as np

from qpzk.core.metrics import (
    fidelity,
    gentle_post_state,
    max_povm_advantage_dim2,
    trace_distance,
)
from qpzk.core.registers import RegisterLayout
from qpzk.core.sampling import random_projector
from qpzk.core.states import partial_trace, random_density, random_pure_state, tensor
from qpzk.core.swap_test import swap_test_circuit_probability, swap_test_povm
from qpzk.harness.config import ExperimentConfig
from qpzk.harness.experiments import _stream
from qpzk.harness.records import ExperimentRecord, equality_row, upper_bound_row


def run(config: ExperimentConfig, record: ExperimentRecord) -> None:
    samples = config.param("samples")
    max_dim_qubits = config.param("dims")
    tol = config.tolerance("identity")

    rng = _stream(config, 0)
    worst = 0.0
    for _ in range(samples):
        lay = RegisterLayout.single("A", int(rng.integers(1, max_dim_qubits + 1)))
        r, s, t = (random_density(lay, rng) for _ in range(3))
        lhs = fidelity(r, s) ** 2 + fidelity(s, t) ** 2
        rhs = 1.0 + fidelity(r, t)
        worst = max(worst, lhs - rhs)
    record.add(upper_bound_row("fidelity-reverse-triangle-worst-violation",
                               worst, 0.0, 0.0, "formula:fidelity-reverse-triangle",
                               slack=tol))

    rng = _stream(config, 1)
    worst = 0.0
    for _ in range(samples):
        lay = RegisterLayout.single("A", 2)
        rho = random_density(lay, rng)
        pi = random_projector(4, int(rng.integers(1, 4)), rng)
        if float(np.trace(pi @ rho.matrix).real) < 0.5:
            continue
        p, post, bound = gentle_post_state(rho, pi)
        worst = max(worst, trace_distance(rho, post) - bound)
    record.add(upper_bound_row("gentle-measurement-worst-violation", worst,
                               0.0, 0.0, "formula:gentle-measurement", slack=tol))

    rng = _stream(config, 2)
    worst = 0.0
    for _ in range(samples):
        lay = RegisterLayout.single("A", int(rng.integers(1, 3)))
        rho = random_density(lay, rng)
        psi = random_pure_state(lay, rng)
        worst = max(worst, abs(swap_test_povm(rho, psi)
                               - swap_test_circuit_probability(rho, psi)))
    record.add(equality_row("swap-test-path-disagreement-worst", worst, 0.0,
                            tol, "oracle:swap-test-circuit"))

    rng = _stream(config, 3)
    worst = 0.0
    for _ in range(samples):
        a = random_pure_state(RegisterLayout.single("A", 1), rng)
        b = random_pure_state(RegisterLayout.single("B", 1), rng)
        joint = tensor(a, b)
        worst = max(worst, float(np.abs(
            partial_trace(joint, "B").matrix - a.density()).max()))
    record.add(equality_row("partial-trace-tensor-roundtrip-worst", worst,
                            0.0, tol, "formula:product-reduction"))

    rng = _stream(config, 4)
    worst = 0.0
    for _ in range(min(samples, 50)):
        a = random_density(RegisterLayout.single("A", 1), rng)
        b = random_density(RegisterLayout.single("A", 1), rng)
        td = trace_distance(a, b)
        worst = max(worst, abs(td - max_povm_advantage_dim2(a, b)))
    record.add(equality_row("trace-distance-povm-duality-worst", worst, 0.0,
                            tol, "oracle:eigenprojector-advantage"))
