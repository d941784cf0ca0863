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
from typing import Callable, Sequence

import numpy as np

from qpzk.core import linalg
from qpzk.core.registers import RegisterLayout, qubit_cap
from qpzk.crypto.commitments import CanonicalCommitment
from qpzk.errors import ConfigError, DimensionMismatchError
from qpzk.protocol import InteractiveProtocol, accept_probability, initial_workspace_state


@dataclass(frozen=True)
class CommitRoundStrategy:
    """Prover operations before each functionality round.

    ops_for(i) returns a list of (matrix, wire names) with names drawn from
    C (commitment register), M, R and Anc; wire order inside an operation
    follows the listed names."""

    ops_for: Callable[[int], Sequence[tuple]]
    ancilla_qubits: int = 0
    name: str = "custom"


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

    stage = "I"

    def __init__(self, base: InteractiveProtocol, scheme: CanonicalCommitment):
        if scheme.message_qubits != base.w_qubits:
            raise DimensionMismatchError(
                "commitment must cover the verifier workspace")
        self.base = base
        self.scheme = scheme
        total = (base.w_qubits + scheme.ancilla_qubits + base.m_qubits
                 + base.r_qubits)
        if total > qubit_cap():
            raise ConfigError("commit-round registers exceed the qubit cap")

    def layout(self, ancilla_qubits: int = 0) -> RegisterLayout:
        regs = [("W", self.base.w_qubits)]
        if self.scheme.ancilla_qubits:
            regs.append(("E", self.scheme.ancilla_qubits))
        regs += [("M", self.base.m_qubits), ("R", self.base.r_qubits)]
        if ancilla_qubits:
            regs.append(("Anc", ancilla_qubits))
        return RegisterLayout.of(*regs)

    def honest_strategy(self) -> CommitRoundStrategy:
        base = self.base

        def ops(i: int):
            return [(base.prover_unitaries[i - 1], ("R", "M"))]

        return CommitRoundStrategy(ops, 0, "honest")

    def commitment_wires(self, lay: RegisterLayout) -> list[int]:
        wires = lay.qubits_of("W")
        if self.scheme.ancilla_qubits:
            wires = wires + lay.qubits_of("E")
        return wires

    def c_wire_positions(self, lay: RegisterLayout) -> list[int]:
        com = self.commitment_wires(lay)
        return [com[i] for i in self.scheme.c_wires]

    def execute(self, strat: CommitRoundStrategy) -> CommitRunResult:
        """Exact probability accounting over every abort branch."""
        base, scheme = self.base, self.scheme
        lay = self.layout(strat.ancilla_qubits)
        n = lay.total_qubits
        com_wires = self.commitment_wires(lay)

        psi_w = initial_workspace_state(base)
        vec = psi_w
        if scheme.ancilla_qubits:
            vec = np.kron(vec, linalg.basis_vector(0, 2 ** scheme.ancilla_qubits))
        vec = np.kron(vec, linalg.basis_vector(
            0, 2 ** (base.m_qubits + base.r_qubits + strat.ancilla_qubits)))
        # Round 0: commit the initialized workspace.
        vec = linalg.apply_to_vector(scheme.com, vec, com_wires, n)

        zero_anc = scheme.ancilla_zero_projector()
        aborts: list[float] = []
        wm = lay.qubits_of_all(["W", "M"])
        for i in range(1, base.rounds + 1):
            for mat, names in strat.ops_for(i):
                vec = self._apply_prover_op(vec, np.asarray(mat, dtype=complex),
                                            names, lay)
            vec = linalg.apply_to_vector(scheme.com.conj().T, vec, com_wires, n)
            passed = linalg.apply_to_vector(zero_anc, vec, com_wires, n)
            p_before = float(np.linalg.norm(vec) ** 2)
            p_pass = float(np.linalg.norm(passed) ** 2)
            aborts.append(p_before - p_pass)
            if p_pass <= 1e-15:
                return CommitRunResult(0.0, 0.0, tuple(aborts))
            vec = passed
            vec = linalg.apply_to_vector(base.verifier_unitaries[i - 1], vec, wm, n)
            if i < base.rounds:
                vec = linalg.apply_to_vector(scheme.com, vec, com_wires, n)
        p_accept = accept_probability(vec, lay)
        p_reject = float(np.linalg.norm(vec) ** 2) - p_accept
        return CommitRunResult(p_accept, max(p_reject, 0.0), tuple(aborts))

    def _apply_prover_op(self, vec, mat, names, lay: RegisterLayout):
        allowed = {"C", "M", "R", "Anc"}
        if not set(names) <= allowed:
            raise ConfigError(f"prover operation touches verifier wires: {names}")
        targets: list[int] = []
        for name in names:
            if name == "C":
                targets.extend(self.c_wire_positions(lay))
            else:
                targets.extend(lay.qubits_of(name))
        return linalg.apply_to_vector(mat, vec, targets, lay.total_qubits)


def compile_hvzk(base: InteractiveProtocol,
                 scheme: CanonicalCommitment) -> CommitRoundProtocol:
    return CommitRoundProtocol(base, scheme)


def fresh_c_substitution_strategy(protocol: CommitRoundProtocol,
                                  at_round: int = 1) -> CommitRoundStrategy:
    """Honest play except that before the given round the prover swaps the
    whole commitment register for fresh zeros from its ancilla."""
    base = protocol.base
    c_count = len(protocol.scheme.c_wires)
    if c_count == 0:
        raise ConfigError("scheme keeps no commitment register to substitute")
    from qpzk.core.operators import swap_registers

    swap = swap_registers(c_count)

    def ops(i: int):
        honest = [(base.prover_unitaries[i - 1], ("R", "M"))]
        if i == at_round:
            return honest + [(swap, ("C", "Anc"))]
        return honest

    return CommitRoundStrategy(ops, ancilla_qubits=c_count,
                               name=f"fresh-C-at-round-{at_round}")

