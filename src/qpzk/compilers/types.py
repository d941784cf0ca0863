"""Shared types for the compiled-protocol pipeline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qpzk.core.operators import checked_unitary


@dataclass(frozen=True)
class HvzkSimulator:
    """Round simulator: unitaries on (private register S, message register),
    in that wire order, mirroring the prover's (workspace, message) layout.

    The simulator never touches the verifier workspace; at desk scale the
    honest prover's unitaries relabeled onto S are an admissible stand-in,
    and runs record which simulator was used.
    """

    unitaries: tuple[np.ndarray, ...]
    m_qubits: int
    s_qubits: int
    label: str = "custom"

    def __post_init__(self):
        qubits = self.s_qubits + self.m_qubits
        object.__setattr__(self, "unitaries", tuple(
            checked_unitary(u, qubits, "simulator unitary on S and M")
            for u in self.unitaries))

    @classmethod
    def from_honest_prover(cls, protocol) -> "HvzkSimulator":
        """Honest prover unitaries with the workspace relabeled as S."""
        return cls(
            tuple(protocol.prover_unitaries),
            m_qubits=protocol.m_qubits,
            s_qubits=protocol.r_qubits,
            label="honest-prover-standin",
        )
