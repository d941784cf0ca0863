"""Parallel repetition of 3-message protocols.

The closed form multiplies soundness errors; the executable form tensors k
copies of a 3-message protocol into one, with a fresh collector qubit that
records the AND of the per-copy accept bits so acceptance stays a
first-workspace-qubit measurement.
"""

from __future__ import annotations

import numpy as np

from qpzk.core import linalg
from qpzk.core.operators import X, controlled
from qpzk.core.registers import RegisterLayout
from qpzk.core.states import PureState
from qpzk.errors import ConfigError
from qpzk.protocol import InteractiveProtocol, initial_workspace_state


def repeated_soundness(zeta: float, k: int) -> float:
    """Soundness error of the k-fold parallel repetition: zeta^k."""
    if k < 1:
        raise ConfigError("repetition count must be at least 1")
    if not 0.0 <= zeta <= 1.0:
        raise ConfigError("base soundness must lie in [0, 1]")
    return zeta ** k


def parallel_repeat(base: InteractiveProtocol, k: int) -> InteractiveProtocol:
    """Executable k-fold tensor product of a 3-message protocol.

    Registers: R' = k R-blocks, W' = collector qubit + k W-blocks,
    M' = k M-blocks. The second verifier unitary runs every copy's V_2 and
    then ANDs the per-copy accept qubits into the collector.
    """
    if base.rounds != 2:
        raise ConfigError("executable repetition takes a 3-message protocol")
    if k == 1:
        return base
    r, w, m = base.r_qubits, base.w_qubits, base.m_qubits
    # The repeated protocol's registers, laid out first so that they are held
    # to the qubit cap before any dense allocation.
    lay = RegisterLayout.of(("R", k * r), ("W", 1 + k * w), ("M", k * m))

    def copy_wires(block: int, size: int, offset: int) -> list[int]:
        return list(range(offset + block * size, offset + (block + 1) * size))

    def copies(gates, size: int, offset: int) -> list:
        return [g for j in range(k) for g in linalg.placed(
            gates, copy_wires(j, size, offset) + copy_wires(j, m, offset + k * size))]

    v_first = copies(base.verifier_rounds[0], w, 1)
    # Second verifier move, then the AND of the k per-copy accept qubits
    # into the collector (wire 0).
    and_gate = (controlled(X, control_qubits=k), [1 + j * w for j in range(k)] + [0])
    v_second = copies(base.verifier_rounds[1], w, 1) + [and_gate]
    p_first = copies(base.prover_rounds[0], r, 0)
    p_second = copies(base.prover_rounds[1], r, 0)

    psi_w = initial_workspace_state(base)
    expected = np.kron(np.kron(linalg.basis_vector(0, 2 ** r), psi_w),
                       linalg.basis_vector(0, 2 ** m))
    overlap = abs(np.vdot(expected, base.initial.amplitudes))
    if abs(overlap - 1.0) > 1e-9:
        raise ConfigError("repetition expects zero-initialized R and M registers")
    psi_v_rep = np.array([1.0], dtype=complex)
    for _ in range(k):
        psi_v_rep = np.kron(psi_v_rep, psi_w)
    psi_v_full = np.kron(linalg.basis_vector(0, 2), psi_v_rep)
    return InteractiveProtocol.from_verifier_start(
        PureState(psi_v_full, lay.drop(["R", "M"])), k * r, k * m, [v_first, v_second],
        [p_first, p_second],
    )
