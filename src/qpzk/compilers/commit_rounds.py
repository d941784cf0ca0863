"""Round-by-round commitment compilation of a base protocol.

Every round is one trusted-functionality call: open the committed verifier
workspace (abort if the ancilla check fails), apply the round's verifier
unitary, and either recommit or, in the final round, measure the output
qubit. The prover holds the commitment register C and the message register
between calls; an honest prover leaves C alone, and then the open/commit
pairs telescope into exactly the base protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qpzk.core import linalg
from qpzk.core.operators import swap_registers
from qpzk.core.registers import RegisterLayout
from qpzk.crypto.commitments import CanonicalCommitment
from qpzk.errors import ConfigError, DimensionMismatchError
from qpzk.protocol import (InteractiveProtocol, Strategy, accept_probability, bind,
                           initial_workspace_state, prover_ancilla)


@dataclass(frozen=True)
class CommitRunResult:
    accept_probability: float
    reject_probability: float
    abort_probabilities: tuple[float, ...]  # per round, unconditional

    @property
    def abort_probability(self) -> float:
        return float(sum(self.abort_probabilities))


class CommitRoundProtocol:
    """Executable stage-I object with exact branch accounting."""

    def __init__(self, base: InteractiveProtocol, scheme: CanonicalCommitment):
        if scheme.message_qubits != base.w_qubits:
            raise DimensionMismatchError(
                "commitment must cover the verifier workspace")
        self.base = base
        self.scheme = scheme
        self.layout()  # the honest registers must fit the qubit cap

    def layout(self, ancilla_qubits: int = 0) -> RegisterLayout:
        regs = [("W", self.base.w_qubits)]
        if self.scheme.ancilla_qubits:
            regs.append(("E", self.scheme.ancilla_qubits))
        regs += [("M", self.base.m_qubits), ("R", self.base.r_qubits)]
        if ancilla_qubits:
            regs.append(("Anc", ancilla_qubits))
        return RegisterLayout.of(*regs)

    def commitment_wires(self, lay: RegisterLayout) -> list[int]:
        wires = lay.qubits_of("W")
        if self.scheme.ancilla_qubits:
            wires = wires + lay.qubits_of("E")
        return wires

    def c_wire_positions(self, lay: RegisterLayout) -> list[int]:
        com = self.commitment_wires(lay)
        return [com[i] for i in self.scheme.c_wires]

    def execute(self, strat: Strategy) -> CommitRunResult:
        """Exact probability accounting over every abort branch. Slot P_i is
        the prover's move before round i, on (R, M), then C, then its
        ancilla, which the slot widths give."""
        base, scheme = self.base, self.scheme
        anc = prover_ancilla(strat, base.honest.slots,
                             base.r_qubits + base.m_qubits + len(scheme.c_wires))
        lay = self.layout(anc)
        n = lay.total_qubits
        com_wires = self.commitment_wires(lay)
        prover = tuple(lay.qubits_of_all(["R", "M"]) + self.c_wire_positions(lay)
                       + (lay.qubits_of("Anc") if anc else []))

        vec = initial_workspace_state(base)
        if scheme.ancilla_qubits:
            vec = np.kron(vec, linalg.basis_vector(0, 2 ** scheme.ancilla_qubits))
        vec = np.kron(vec, linalg.basis_vector(0, 2 ** (base.m_qubits + base.r_qubits + anc)))
        # Round 0: commit the initialized workspace.
        vec = scheme.commit_on(vec, com_wires, n)

        aborts: list[float] = []
        wm = lay.qubits_of_all(["W", "M"])
        for i in range(1, base.rounds + 1):
            vec = linalg.apply_gates(bind(((f"P{i}", prover),), strat.slots), vec, n)
            p_before = float(np.linalg.norm(vec) ** 2)
            vec = scheme.open_on(vec, com_wires, n)
            p_pass = float(np.linalg.norm(vec) ** 2)
            aborts.append(p_before - p_pass)
            if p_pass <= 1e-15:
                return CommitRunResult(0.0, 0.0, tuple(aborts))
            vec = linalg.apply_gates(linalg.placed(base.verifier_rounds[i - 1], wm), vec, n)
            if i < base.rounds:
                vec = scheme.commit_on(vec, com_wires, n)
        p_accept = accept_probability(vec, lay)
        p_reject = float(np.linalg.norm(vec) ** 2) - p_accept
        return CommitRunResult(p_accept, max(p_reject, 0.0), tuple(aborts))


def fresh_c_substitution_strategy(protocol: CommitRoundProtocol,
                                  at_round: int = 1) -> Strategy:
    """Honest play except that before the given round the prover swaps the
    whole commitment register for fresh zeros from its ancilla."""
    base = protocol.base
    c_count = len(protocol.scheme.c_wires)
    if c_count == 0:
        raise ConfigError("scheme keeps no commitment register to substitute")
    if not 1 <= at_round <= base.rounds:
        raise ConfigError(f"at_round {at_round} outside 1..{base.rounds}")
    slots = dict(base.honest.slots)
    # Local wires of the slot: (R, M), then C, then the ancilla.
    c = base.r_qubits + base.m_qubits
    slots[f"P{at_round}"] += ((swap_registers(c_count), tuple(range(c, c + 2 * c_count))),)
    return Strategy.computed(slots, name=f"fresh-C-at-round-{at_round}")
