"""Public-coin compilation of a 3-message protocol.

The prover opens by handing over the whole verifier workspace W; the
verifier answers with one uniform coin b and receives M. On b = 0 it runs
the final check (V_2, measure the first workspace qubit); on b = 1 it undoes
V_1 and SWAP-tests the workspace against a fresh copy of its initial state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qpzk.core import linalg
from qpzk.core.operators import P1, projector_onto
from qpzk.core.registers import RegisterLayout
from qpzk.core.sampling import accept_bit
from qpzk.core.states import MixedState
from qpzk.errors import ConfigError
from qpzk.optimize import AscentProblem, Branch
from qpzk.protocol import InteractiveProtocol, Strategy, verifier_view


def public_coin_soundness(zeta: float) -> float:
    """3/4 + sqrt(zeta)/2; values above one are reported unclamped and the
    harness marks them vacuous."""
    if not 0.0 <= zeta <= 1.0:
        raise ConfigError("base soundness must lie in [0, 1]")
    return 0.75 + math.sqrt(zeta) / 2.0


class PublicCoinProtocol:
    """Executable stage-III object with exact per-branch evaluation."""

    def __init__(self, base: InteractiveProtocol):
        if base.rounds != 2:
            raise ConfigError("the public-coin compiler takes a 3-message protocol")
        self.base = base
        self.layout = base.layout  # (R, W, M)
        w = base.w_qubits
        swap_accept = (np.eye(2 ** w, dtype=complex) + projector_onto(base.psi_v)) / 2.0
        self.sqrt_swap_accept = linalg.psd_sqrt(swap_accept)
        # The two coin branches as step lists: the exact branch values and
        # the prover oracle both evaluate this one problem.
        self.problem = AscentProblem(self.layout.total_qubits,
                                     tuple(Branch(0.5, self._branch_steps(b)) for b in (0, 1)))

    # -- strategies -----------------------------------------------------------

    def honest_strategy(self) -> Strategy:
        """The opening is the base's state on (R, W, M) after message 2; the
        response to coin 0 is the base's second prover round, to coin 1 the
        identity on (R, M), an empty gate list."""
        vec = self.base.evolve(upto_message=2).amplitudes
        return Strategy.computed({"U0": self.base.prover_unitaries[1], "U1": ()}, vec, "honest")

    def coin_views(self, prover: Strategy) -> dict[int, MixedState]:
        """Each coin's (W, M) view with a prover of the base: after its
        second round (message 3) for b = 0, after V_1 (message 2) for b = 1."""
        return {b: verifier_view(self.base, prover, 3 - b) for b in (0, 1)}

    # -- exact evaluation -------------------------------------------------------

    def _checks(self, b: int, lay: RegisterLayout) -> tuple:
        """The verifier's check of branch b as gates on the W and M wires of
        lay: for b = 0 the gates of V_2 and |1><1| on the first W qubit, for
        b = 1 the gates of V_1^dagger and the square root of the SWAP-test
        accept operator on W."""
        wm = lay.qubits_of_all(["W", "M"])
        w = tuple(lay.qubits_of("W"))
        if b == 0:
            return (*linalg.placed(self.base.verifier_rounds[1], wm), (P1, w[:1]))
        return (*linalg.adjoint(linalg.placed(self.base.verifier_rounds[0], wm)),
                (self.sqrt_swap_accept, w))

    def _branch_steps(self, b: int) -> tuple:
        """Branch b as gates on (R, W, M): the response slot U_b on R M, then
        the verifier's check of branch b."""
        lay = self.base.layout
        rm = tuple(lay.qubits_of_all(["R", "M"]))
        return ((f"U{b}", rm), *self._checks(b, lay))

    def branch_value(self, strat: Strategy, b: int) -> float:
        return self.problem.branch_value(strat, b)

    def transcript_acceptance(self, wm_state: MixedState, b: int) -> float:
        """Verifier branch check applied to a bare (W, M) transcript."""
        base = self.base
        lay = RegisterLayout.of(("W", base.w_qubits), ("M", base.m_qubits))
        mat = wm_state.relabel(lay).matrix
        for op, wires in self._checks(b, lay):
            mat = linalg.apply_to_matrix(op, mat, wires, lay.total_qubits)
        return float(mat.trace().real)

    def acceptance(self, strat: Strategy) -> float:
        return 0.5 * self.branch_value(strat, 0) + 0.5 * self.branch_value(strat, 1)

    def sample_run(self, strat: Strategy, coin_schedule, rng):
        """(outcome bit, transcript) with the coin drawn unless scheduled."""
        coins = tuple(coin_schedule or ())
        if len(coins) > 1:
            raise ConfigError("public-coin protocol takes exactly one coin")
        if coins:
            b = int(coins[0])
            if b not in (0, 1):
                raise ConfigError(f"public coin must be 0 or 1, got {b}")
        else:
            b = int(rng.integers(2))
        value = self.branch_value(strat, b)
        return accept_bit(value, rng), (b, value)

    def sample_hits(self, strat: Strategy, trials: int, rng) -> tuple[int, float]:
        """(accepted runs out of `trials`, exact acceptance): each branch is
        evaluated once, and the hit count is one binomial draw at the exact
        acceptance, the distribution of `trials` calls to `sample_run`."""
        exact = self.acceptance(strat)
        return int(rng.binomial(trials, min(exact, 1.0))), exact


def make_public_coin(base: InteractiveProtocol) -> PublicCoinProtocol:
    return PublicCoinProtocol(base)


@dataclass(frozen=True)
class SimulatedCoinTranscript:
    coin: int
    wm_state: MixedState


def hv_simulate_public_coin(compiled: PublicCoinProtocol, sim: Strategy,
                            trials: int, rng) -> list[SimulatedCoinTranscript]:
    """`trials` simulated (W, M, b) transcripts, each with a uniform coin;
    the two transcripts are built once."""
    transcripts = compiled.coin_views(sim)
    return [SimulatedCoinTranscript(b, transcripts[b])
            for b in rng.integers(2, size=trials).tolist()]
