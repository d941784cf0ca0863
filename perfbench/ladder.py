"""Kernel ladder: the dense kernels and construction checks at fixed sizes.

Each rung reports microseconds per call (the median of repeated calls),
and for the kernels a GFLOP/s rate and a byte count that are computed from
the array sizes, not measured by counters. Gates act on two qubits, the
first and the last, so every call permutes the whole state. No density
matrix is made above 10 qubits: at 14 qubits one would take 4 GiB.
"""

from __future__ import annotations

import time

import numpy as np

VECTOR_QUBITS = range(6, 15)
MATRIX_QUBITS = range(5, 11)
TRACE_QUBITS = (6, 8, 10)
VALIDATE_QUBITS = 10
GATE_QUBITS = 2
MIN_SECONDS = 0.05
MIN_CALLS = 5
MIB = 2.0 ** 20


def metric_names() -> list[str]:
    names = []
    for n in VECTOR_QUBITS:
        names += [f"ladder.apply_to_vector.n{n}.{s}"
                  for s in ("us", "gflops_computed", "mib_computed")]
    for n in MATRIX_QUBITS:
        names += [f"ladder.apply_to_matrix.n{n}.{s}"
                  for s in ("us", "gflops_computed", "mib_computed")]
    for n in TRACE_QUBITS:
        names += [f"ladder.partial_trace_matrix.n{n}.{s}" for s in ("us", "mib_computed")]
    names += [f"ladder.validate.unitary.n{VALIDATE_QUBITS}.us",
              f"ladder.validate.mixed.n{VALIDATE_QUBITS}.us"]
    return names


def _us_per_call(fn, min_seconds: float = MIN_SECONDS, min_calls: int = MIN_CALLS) -> float:
    times = []
    started = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - started < min_seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e6


def _random_unitary(dim: int, rng) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def run(seed: int) -> dict[str, float]:
    from qpzk.core import linalg
    from qpzk.core.operators import UnitaryOp
    from qpzk.core.registers import RegisterLayout
    from qpzk.core.states import MixedState

    rng = np.random.default_rng(seed)
    gate = _random_unitary(2 ** GATE_QUBITS, rng)
    gate_bytes = gate.nbytes
    out: dict[str, float] = {}

    for n in VECTOR_QUBITS:
        vec = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
        targets = [0, n - 1]
        us = _us_per_call(lambda: linalg.apply_to_vector(gate, vec, targets, n))
        flop = 8.0 * 2 ** GATE_QUBITS * 2 ** n
        key = f"ladder.apply_to_vector.n{n}"
        out[key + ".us"] = us
        out[key + ".gflops_computed"] = flop / (us * 1e3)
        out[key + ".mib_computed"] = (gate_bytes + 2 * vec.nbytes) / MIB

    for n in MATRIX_QUBITS:
        dim = 2 ** n
        mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        targets = [0, n - 1]
        us = _us_per_call(lambda: linalg.apply_to_matrix(gate, mat, targets, n))
        flop = 2 * 8.0 * 2 ** GATE_QUBITS * 4 ** n
        key = f"ladder.apply_to_matrix.n{n}"
        out[key + ".us"] = us
        out[key + ".gflops_computed"] = flop / (us * 1e3)
        out[key + ".mib_computed"] = (gate_bytes + 2 * mat.nbytes) / MIB

    for n in TRACE_QUBITS:
        dim = 2 ** n
        mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        keep = list(range(n // 2))
        us = _us_per_call(lambda: linalg.partial_trace_matrix(mat, keep, n))
        key = f"ladder.partial_trace_matrix.n{n}"
        out[key + ".us"] = us
        out[key + ".mib_computed"] = (mat.nbytes + 16 * 4 ** len(keep)) / MIB

    n = VALIDATE_QUBITS
    u = _random_unitary(2 ** n, rng)
    out[f"ladder.validate.unitary.n{n}.us"] = _us_per_call(
        lambda: UnitaryOp(u, ("A",)), min_seconds=0.0, min_calls=3)
    v = _random_unitary(2 ** n, rng)
    weights = rng.random(2 ** n)
    rho = (v * (weights / weights.sum())) @ v.conj().T
    layout = RegisterLayout.single("A", n)
    out[f"ladder.validate.mixed.n{n}.us"] = _us_per_call(
        lambda: MixedState(rho, layout), min_seconds=0.0, min_calls=3)
    return out
