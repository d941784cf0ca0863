"""The SWAP test between a state and a pure reference.

Two implementations are kept side by side and must agree:

* POVM path: acceptance operator (Id + |psi><psi|) / 2 applied to rho.
* Circuit path: ancilla in |+>, controlled-SWAP, Hadamard-basis measurement;
  the accepting branch applies the symmetric-subspace projector to the pair.

`symmetric_projector_outcomes` runs the same test on two registers inside a
larger state and keeps the post-measurement states.
"""

from __future__ import annotations

import numpy as np

from qpzk.core import linalg
from qpzk.core.operators import H, P0, ProjectiveMeasurement, controlled, swap_registers
from qpzk.core.registers import RegisterLayout
from qpzk.core.states import MeasurementOutcome, PureState, QuantumState, measure, tensor
from qpzk.errors import DimensionMismatchError


def swap_test_povm(rho: QuantumState, psi: PureState) -> float:
    """Acceptance probability (1 + <psi|rho|psi>) / 2."""
    if rho.dim != psi.dim:
        raise DimensionMismatchError("SWAP test needs equal register sizes")
    overlap = float(np.vdot(psi.amplitudes, rho.density() @ psi.amplitudes).real)
    return (1.0 + overlap) / 2.0


def swap_test_circuit_probability(rho: QuantumState, psi: PureState) -> float:
    """Acceptance probability from the explicit ancilla circuit.

    Builds |+> ancilla, applies controlled-SWAP, rotates the ancilla with H
    and measures it in the computational basis. Exists as an independent
    check of the POVM shortcut.
    """
    if rho.dim != psi.dim:
        raise DimensionMismatchError("SWAP test needs equal register sizes")
    n = rho.n_qubits
    anc_layout = RegisterLayout.single("swap_anc", 1)
    plus = PureState(np.array([1, 1], dtype=complex) / np.sqrt(2), anc_layout)
    pair = tensor(rho.relabel(RegisterLayout.single("swap_a", n)),
                  psi.relabel(RegisterLayout.single("swap_b", n)))
    full = tensor(plus, pair).to_mixed()
    total = full.n_qubits

    cswap = controlled(swap_registers(n))
    state = linalg.apply_to_matrix(cswap, full.matrix, list(range(total)), total)
    state = linalg.apply_to_matrix(H, state, [0], total)
    accepted = linalg.apply_to_matrix(P0, state, [0], total)
    return float(accepted.trace().real)


def symmetric_projector_outcomes(joint: QuantumState, pair_a, pair_b) -> list[MeasurementOutcome]:
    """SWAP-test branches on two named registers inside a larger state.

    Outcome 0 projects (pair_a, pair_b) onto the symmetric subspace, outcome 1
    onto the antisymmetric one; post-states keep the full layout.
    """
    qa = joint.layout.qubits_of(pair_a)
    qb = joint.layout.qubits_of(pair_b)
    if len(qa) != len(qb):
        raise DimensionMismatchError("SWAP test needs equal register sizes")
    swap = swap_registers(len(qa))
    dim2 = swap.shape[0]
    sym = (np.eye(dim2) + swap) / 2
    anti = (np.eye(dim2) - swap) / 2
    meas = ProjectiveMeasurement((sym, anti))
    return measure(joint, meas, acts_on=(pair_a, pair_b))
