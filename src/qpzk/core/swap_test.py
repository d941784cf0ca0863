"""The SWAP test between a state and a pure reference.

Two implementations are kept side by side and must agree:

* POVM path: acceptance operator (Id + |psi><psi|) / 2 applied to rho.
* Circuit path: ancilla in |+>, controlled-SWAP, Hadamard-basis measurement;
  the accepting branch applies the symmetric-subspace projector to the pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from qpzk.core import linalg
from qpzk.core.operators import H, P0, controlled, swap_registers
from qpzk.core.registers import RegisterLayout
from qpzk.core.states import (
    MeasurementOutcome,
    MixedState,
    PureState,
    QuantumState,
    tensor,
)
from qpzk.errors import DimensionMismatchError


def swap_test_povm(rho: QuantumState, psi: PureState) -> float:
    """Acceptance probability (1 + <psi|rho|psi>) / 2."""
    if rho.dim != psi.dim:
        raise DimensionMismatchError("SWAP test needs equal register sizes")
    overlap = float(np.vdot(psi.amplitudes, rho.density() @ psi.amplitudes).real)
    return (1.0 + overlap) / 2.0


@dataclass(frozen=True)
class SwapTestResult:
    accept_probability: float
    # Joint post-states on (first input, reference) per ancilla outcome;
    # zero-probability branches carry None.
    post_accept: Optional[MixedState]
    post_reject: Optional[MixedState]


def swap_test(rho: QuantumState, psi: PureState, rng=None) -> SwapTestResult:
    """Run the circuit-level SWAP test and cross-check the POVM value.

    The two paths must agree within 1e-9; disagreement raises. The rng is
    unused here (the result is exact) and accepted for interface symmetry
    with sampled callers, which draw from accept_probability themselves.
    """
    if rho.dim != psi.dim:
        raise DimensionMismatchError("SWAP test needs equal register sizes")
    n = rho.n_qubits
    layout = RegisterLayout.of(("swap_a", n), ("swap_b", n))
    joint = tensor(rho.relabel(RegisterLayout.single("swap_a", n)),
                   psi.relabel(RegisterLayout.single("swap_b", n))).to_mixed()

    # Circuit on ancilla + pair, expressed through the equivalent Kraus form:
    # accept branch projects the pair onto the symmetric subspace.
    swap = swap_registers(n)
    dim2 = swap.shape[0]
    sym = (np.eye(dim2) + swap) / 2
    anti = (np.eye(dim2) - swap) / 2

    acc = linalg.apply_to_matrix(sym, joint.matrix, list(range(2 * n)), 2 * n)
    rej = linalg.apply_to_matrix(anti, joint.matrix, list(range(2 * n)), 2 * n)
    p_acc = float(acc.trace().real)
    p_rej = float(rej.trace().real)

    p_povm = swap_test_povm(rho, psi)
    if abs(p_acc - p_povm) > 1e-9:
        raise AssertionError(
            f"circuit ({p_acc}) and POVM ({p_povm}) SWAP-test paths disagree"
        )

    post_acc = MixedState(acc / p_acc, layout) if p_acc > 1e-12 else None
    post_rej = MixedState(rej / p_rej, layout) if p_rej > 1e-12 else None
    return SwapTestResult(p_acc, post_acc, post_rej)


def swap_test_circuit_probability(rho: QuantumState, psi: PureState) -> float:
    """Acceptance probability from the explicit ancilla circuit.

    Builds |+> ancilla, applies controlled-SWAP, rotates the ancilla with H
    and measures it in the computational basis. Exists as an independent
    check of the Kraus shortcut used by swap_test.
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
    from qpzk.core.operators import ProjectiveMeasurement
    from qpzk.core.states import measure

    meas = ProjectiveMeasurement((sym, anti))
    return measure(joint, meas, acts_on=(pair_a, pair_b))
