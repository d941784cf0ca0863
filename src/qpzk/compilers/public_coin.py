"""Public-coin compilation of a 3-message protocol.

The prover opens by handing over the whole verifier workspace W; the
verifier answers with one uniform coin b and receives M. On b = 0 it runs
the final check (V_2, measure the first workspace qubit); on b = 1 it undoes
V_1 and SWAP-tests the workspace against a fresh copy of its initial state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qpzk.core import linalg
from qpzk.core.operators import P1, projector_onto
from qpzk.core.registers import RegisterLayout
from qpzk.core.states import MixedState
from qpzk.errors import ConfigError, DimensionMismatchError
from qpzk.optimize import AscentProblem, Branch, FixedStep, SlotStep
from qpzk.protocol import InteractiveProtocol, accept_probability, initial_workspace_state
from qpzk.compilers.types import HvzkSimulator


def public_coin_soundness(zeta: float) -> float:
    """3/4 + sqrt(zeta)/2; values above one are reported unclamped and the
    harness marks them vacuous."""
    if not 0.0 <= zeta <= 1.0:
        raise ConfigError("base soundness must lie in [0, 1]")
    return 0.75 + math.sqrt(zeta) / 2.0


@dataclass(frozen=True)
class PublicCoinStrategy:
    """Message-1 state on (R, W, M) plus one response unitary on (R, M) per
    coin value."""

    opening: np.ndarray
    response_for: Callable[[int], np.ndarray]
    name: str = "custom"


class PublicCoinProtocol:
    """Executable stage-III object with exact per-branch evaluation."""

    stage = "III"
    num_challenges = 1

    def __init__(self, base: InteractiveProtocol):
        if base.rounds != 2:
            raise ConfigError("the public-coin compiler takes a 3-message protocol")
        self.base = base
        self.psi_v = initial_workspace_state(base)
        self.layout = base.layout  # (R, W, M)
        w = base.w_qubits
        psi_proj = projector_onto(self.psi_v)
        self.swap_accept = (np.eye(2 ** w, dtype=complex) + psi_proj) / 2.0

    # -- strategies -----------------------------------------------------------

    def honest_strategy(self) -> PublicCoinStrategy:
        base = self.base
        n = base.layout.total_qubits
        vec = base.initial.amplitudes
        vec = linalg.apply_to_vector(base.prover_unitaries[0], vec,
                                     base.layout.qubits_of_all(["R", "M"]), n)
        vec = linalg.apply_to_vector(base.verifier_unitaries[0], vec,
                                     base.layout.qubits_of_all(["W", "M"]), n)
        p2 = base.prover_unitaries[1]
        ident = np.eye(p2.shape[0], dtype=complex)

        def respond(b: int) -> np.ndarray:
            return p2 if b == 0 else ident

        return PublicCoinStrategy(vec, respond, "honest")

    def simulator_transcripts(self, sim: HvzkSimulator):
        """The two equal-probability simulated (W, M) transcripts.

        Branch b = 0 plays both simulator rounds through V_1; branch b = 1
        stops after the first round. Returns {b: MixedState on (W, M)}."""
        base = self.base
        if len(sim.unitaries) != 2:
            raise ConfigError("need a two-round simulator")
        if sim.m_qubits != base.m_qubits or sim.s_qubits != base.r_qubits:
            raise DimensionMismatchError("simulator register sizes mismatch")
        lay = RegisterLayout.of(("S", sim.s_qubits), ("W", base.w_qubits),
                                ("M", base.m_qubits))
        n = lay.total_qubits
        sm = lay.qubits_of_all(["S", "M"])
        wm = lay.qubits_of_all(["W", "M"])
        start = np.kron(
            np.kron(linalg.basis_vector(0, 2 ** sim.s_qubits), self.psi_v),
            linalg.basis_vector(0, 2 ** base.m_qubits))
        one = linalg.apply_to_vector(sim.unitaries[0], start, sm, n)
        one = linalg.apply_to_vector(base.verifier_unitaries[0], one, wm, n)
        two = linalg.apply_to_vector(sim.unitaries[1], one, sm, n)
        keep = lay.qubits_of_all(["W", "M"])
        out_lay = RegisterLayout.of(("W", base.w_qubits), ("M", base.m_qubits))
        return {
            0: MixedState(linalg.partial_trace_vector(two, keep, n), out_lay),
            1: MixedState(linalg.partial_trace_vector(one, keep, n), out_lay),
        }

    # -- exact evaluation -------------------------------------------------------

    def branch_value(self, strat: PublicCoinStrategy, b: int) -> float:
        base = self.base
        lay = base.layout
        n = lay.total_qubits
        vec = np.asarray(strat.opening, dtype=complex)
        if vec.shape[0] != 2 ** n:
            raise DimensionMismatchError("opening state must live on (R, W, M)")
        vec = linalg.apply_to_vector(strat.response_for(b), vec,
                                     lay.qubits_of_all(["R", "M"]), n)
        wm = lay.qubits_of_all(["W", "M"])
        if b == 0:
            vec = linalg.apply_to_vector(base.verifier_unitaries[1], vec, wm, n)
            return accept_probability(vec, lay)
        vec = linalg.apply_to_vector(base.verifier_unitaries[0].conj().T, vec, wm, n)
        red = linalg.partial_trace_vector(vec, lay.qubits_of("W"), n)
        return float(np.trace(self.swap_accept @ red).real)

    def transcript_acceptance(self, wm_state: MixedState, b: int) -> float:
        """Verifier branch check applied to a bare (W, M) transcript."""
        base = self.base
        lay = RegisterLayout.of(("W", base.w_qubits), ("M", base.m_qubits))
        state = wm_state.relabel(lay)
        n = lay.total_qubits
        if b == 0:
            mat = linalg.apply_to_matrix(base.verifier_unitaries[1], state.matrix,
                                         list(range(n)), n)
            first_w = lay.qubits_of("W")[0]
            out = linalg.apply_to_matrix(P1, mat, [first_w], n)
            return float(out.trace().real)
        mat = linalg.apply_to_matrix(base.verifier_unitaries[0].conj().T,
                                     state.matrix, list(range(n)), n)
        red = linalg.partial_trace_matrix(mat, lay.qubits_of("W"), n)
        return float(np.trace(self.swap_accept @ red).real)

    def acceptance(self, strat: PublicCoinStrategy) -> float:
        return 0.5 * self.branch_value(strat, 0) + 0.5 * self.branch_value(strat, 1)

    def sample_run(self, strat: PublicCoinStrategy, coin_schedule, rng):
        """(outcome bit, transcript) with the coin drawn unless scheduled."""
        if coin_schedule is not None and len(tuple(coin_schedule)) not in (0, 1):
            raise ConfigError("public-coin protocol takes exactly one coin")
        if coin_schedule:
            b = int(tuple(coin_schedule)[0])
        else:
            b = int(rng.integers(2))
        value = self.branch_value(strat, b)
        outcome = 1 if rng.random() < value else 0
        return outcome, (b, value)

    # -- cheat oracle -------------------------------------------------------------

    def ascent_problem(self, ancilla_qubits: int = 0) -> AscentProblem:
        base = self.base
        n = base.layout.total_qubits + ancilla_qubits
        rm = base.layout.qubits_of_all(["R", "M"]) + list(
            range(base.layout.total_qubits, n))
        wm = base.layout.qubits_of_all(["W", "M"])
        first_w = base.layout.qubits_of("W")[0]
        w_wires = base.layout.qubits_of("W")
        sqrt_e0 = linalg.psd_sqrt(self.swap_accept)
        branch0 = Branch(0.5, (
            SlotStep("U0", tuple(rm)),
            FixedStep(base.verifier_unitaries[1], tuple(wm)),
            FixedStep(P1, (first_w,)),
        ))
        branch1 = Branch(0.5, (
            SlotStep("U1", tuple(rm)),
            FixedStep(base.verifier_unitaries[0].conj().T, tuple(wm)),
            FixedStep(sqrt_e0, tuple(w_wires)),
        ))
        return AscentProblem(n, (branch0, branch1), fixed_init=None, fixed_qubits=())


def make_public_coin(base: InteractiveProtocol) -> PublicCoinProtocol:
    return PublicCoinProtocol(base)


@dataclass(frozen=True)
class SimulatedCoinTranscript:
    coin: int
    wm_state: MixedState


def hv_simulate_public_coin(compiled: PublicCoinProtocol, sim: HvzkSimulator,
                            rng) -> SimulatedCoinTranscript:
    """Emit one simulated (W, M, b) transcript with a uniform coin."""
    transcripts = compiled.simulator_transcripts(sim)
    b = int(rng.integers(2))
    return SimulatedCoinTranscript(b, transcripts[b])

