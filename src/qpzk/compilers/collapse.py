"""Round collapsing: any r-round protocol into three messages.

The prover opens with one entangled bundle holding a snapshot of every round
(workspaces W_2..W_r and messages M_1..M_r, each snapshot privately purified
by its own R_k). The verifier checks the final snapshot against the
accepting projector, picks a random round i, applies V_i, swaps W_i with
W_i+1 controlled on half of a fresh Bell pair and ships the other half with
the two touched message registers; the prover's reply comes back through a
controlled-X and a Hadamard-basis test of the Bell pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from qpzk.core import linalg
from qpzk.core.operators import (H, P0, P1, X, CNOT, accept_projector, controlled,
                                 projector_onto, swap_registers)
from qpzk.core.registers import RegisterLayout
from qpzk.core.states import PureState
from qpzk.errors import ConfigError, DimensionMismatchError, ZeroProbabilityError
from qpzk.optimize import AscentProblem, Branch
from qpzk.protocol import InteractiveProtocol, Strategy, bind, run_steps

PLUS_PROJ = projector_onto(np.array([1, 1]) / np.sqrt(2))
BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def collapsed_soundness(zeta: float, r: int) -> float:
    """1 - (1 - zeta)^2 / (16 (r - 1)^2); monotone in both arguments."""
    if r < 2:
        raise ConfigError("round collapse needs at least two rounds")
    if not 0.0 <= zeta <= 1.0:
        raise ConfigError("base soundness must lie in [0, 1]")
    return 1.0 - (1.0 - zeta) ** 2 / (16.0 * (r - 1) ** 2)


# Positions in `_challenge_steps` of the steps whose output `_run` reads.
_ACCEPT_CHECK, _REPLY, _CNOT, _BELL_TEST = 0, 3, 4, 5


class _ChallengeRun(NamedTuple):
    """One challenge run past the accept check: the pass probabilities of
    the accept check and of the Bell test given it, the unnormalized states
    right before and after the verifier's controlled-X, and their layout."""

    p_acc: float
    p_bell: float
    pre_cnot: np.ndarray
    post_cnot: np.ndarray
    lay: RegisterLayout


class CollapsedProtocol:
    """Executable stage-II object with exact branch evaluation.

    A prover is a `Strategy`: its free part is the message-1 bundle, a pure
    state on (W_2..W_r, M_1..M_r, P) in that order, with P its private
    wires, and slot U_i is its reply to challenge i (1-based), a unitary on
    the prover-visible wires M_i, M_i+1, Bp and P.
    """

    def __init__(self, base: InteractiveProtocol):
        if base.rounds < 2:
            raise ConfigError("round collapse needs at least two rounds")
        self.base = base
        self.r = base.rounds
        # All registers but P; they alone must fit the qubit cap.
        self.public_qubits = self.layout(0).total_qubits
        # The verifier's start, on the wires B, Bp and W1 that lead every layout.
        self.verifier_start = np.kron(BELL, base.psi_v)

    # -- wire bookkeeping ----------------------------------------------------

    def layout(self, private_qubits: int) -> RegisterLayout:
        regs = [("B", 1), ("Bp", 1)]
        w, m = self.base.w_qubits, self.base.m_qubits
        regs += [(f"W{k}", w) for k in range(1, self.r + 1)]
        regs += [(f"M{k}", m) for k in range(1, self.r + 1)]
        if private_qubits:
            regs.append(("P", private_qubits))
        return RegisterLayout.of(*regs)

    def prover_wire_names(self, challenge: int) -> tuple[str, ...]:
        return (f"M{challenge}", f"M{challenge + 1}", "Bp", "P")

    # -- honest strategy -------------------------------------------------------

    def honest_strategy(self) -> Strategy:
        return self._snapshot_strategy(self.base.honest, "honest")

    def simulator_strategy(self, sim: Strategy) -> Strategy:
        """The round simulator, a prover of the base, driving the same
        interface as a prover; its workspace stands in for the prover's."""
        return self._snapshot_strategy(sim, f"simulator:{sim.name}")

    def _snapshots(self, prover: Strategy) -> tuple[np.ndarray, RegisterLayout]:
        """Product of the states after each prover move of the base, with its
        layout (R1, M1), (R2, W2, M2), ..., (Rr, Wr, Mr); a prover of the
        base other than the honest one stands in for it (simulator use), and
        an ancilla has no register here. Snapshot 1 carries no W wire (the
        verifier owns W_1), so its product psi_v factor is stripped."""
        base = self.base
        first = base.evolve(prover, upto_message=1)
        if first.layout != base.layout:
            raise ConfigError(f"strategy {prover.name!r}: a round simulator's snapshots "
                              "carry no ancilla")
        w, m, rq = base.w_qubits, base.m_qubits, base.r_qubits
        regs = [("R1", rq), ("M1", m)]
        vec = _strip_w(first.amplitudes, base)
        for k in range(2, self.r + 1):
            regs += [(f"R{k}", rq), (f"W{k}", w), (f"M{k}", m)]
            vec = np.kron(vec, base.evolve(prover, upto_message=2 * k - 1).amplitudes)
        return vec, RegisterLayout.of(*regs)

    def _snapshot_strategy(self, prover: Strategy, name: str) -> Strategy:
        base, r = self.base, self.r
        m, rq = base.m_qubits, base.r_qubits
        vec, snaps = self._snapshots(prover)
        bundle = linalg.permute_vector(vec, snaps.qubits_of_all(
            [f"W{k}" for k in range(2, r + 1)] + [f"M{k}" for k in range(1, r + 1)]
            + [f"R{k}" for k in range(1, r + 1)]), snaps.total_qubits)
        replies = {}
        for i in range(1, r):
            # The reply's wires in the order of prover_wire_names(i), with P
            # made of R_1..R_r.
            local = RegisterLayout.of((f"M{i}", m), (f"M{i + 1}", m), ("Bp", 1),
                                      *[(f"R{k}", rq) for k in range(1, r + 1)])
            replies[f"U{i}"] = linalg.gate_product(_reply_gates(prover, local, i, "Bp"),
                                                   local.total_qubits)
        return Strategy.computed(replies, bundle, name)

    # -- exact execution -------------------------------------------------------

    def _challenge_steps(self, challenge: int, lay: RegisterLayout) -> tuple:
        """The verifier's run for one challenge i on layout lay, as gates:
        accept projector on W_r M_r, V_i on W_i M_i, swap of W_i and W_i+1
        controlled on B, the prover's reply as slot U_i on its wires
        (prover_wire_names), controlled-X from B to Bp, then |+><+| on B.
        `_run` reads the steps' outputs by the positions named above."""
        i = challenge
        wires = lay.qubits_of_all
        return (
            (accept_projector(self.base.verifier_unitaries[-1]),
             tuple(wires([f"W{self.r}", f"M{self.r}"]))),
            (self.base.verifier_unitaries[i - 1], tuple(wires([f"W{i}", f"M{i}"]))),
            (_controlled_swap(self.base.w_qubits), tuple(wires(["B", f"W{i}", f"W{i + 1}"]))),
            (f"U{i}", tuple(wires(self.prover_wire_names(i)))),
            (CNOT, tuple(wires(["B", "Bp"]))),
            (PLUS_PROJ, tuple(wires(["B"]))),
        )

    def _run(self, strat: Strategy, challenge: int) -> Optional[_ChallengeRun]:
        """One challenge run exactly, as its named intermediate vectors, or
        None when the accept check cannot pass. The size of P is what the
        bundle holds past the snapshot registers."""
        if not 1 <= challenge <= self.r - 1:
            raise ConfigError(f"challenge {challenge} outside 1..{self.r - 1}")
        joint = np.kron(self.verifier_start, strat.free)
        private_qubits = len(joint).bit_length() - 1 - self.public_qubits
        if private_qubits < 0:
            raise DimensionMismatchError("bundle is smaller than the snapshot registers")
        lay = self.layout(private_qubits)
        trace = run_steps(self._challenge_steps(challenge, lay), strat.slots,
                          PureState(joint, lay).amplitudes, lay.total_qubits)
        # Position -1 is the start; only the states read are kept.
        after = {pos: vec for pos, vec in enumerate(trace, -1)
                 if pos in (_ACCEPT_CHECK, _REPLY, _CNOT, _BELL_TEST)}
        p_acc = float(np.linalg.norm(after[_ACCEPT_CHECK]) ** 2)
        if p_acc <= 1e-15:
            return None
        p_bell = float(np.linalg.norm(after[_BELL_TEST]) ** 2) / p_acc
        return _ChallengeRun(p_acc, p_bell, after[_REPLY], after[_CNOT], lay)

    def challenge_outcome(self, strat: Strategy, challenge: int):
        """Exact probabilities for one challenge: (p_acc_check, p_bell_given
        _acc, overall)."""
        run = self._run(strat, challenge)
        if run is None:
            return 0.0, 0.0, 0.0
        return run.p_acc, run.p_bell, run.p_acc * run.p_bell

    def acceptance(self, strat: Strategy) -> float:
        """Exact acceptance, averaged over the uniform challenge."""
        vals = [self.challenge_outcome(strat, i)[2] for i in range(1, self.r)]
        return float(np.mean(vals))

    def branch_overlap_identity(self, strat: Strategy, challenge: int):
        """The Bell-test probability against 1/2 + Re<psi0|psi1>/2 computed
        from the two control branches of the post-controlled-X state, or
        None when the accept check cannot pass."""
        run = self._run(strat, challenge)
        if run is None:
            return None
        # Normalize the post-check state, split on the B wire.
        vec = run.post_cnot / np.linalg.norm(run.post_cnot)
        t = linalg.split(vec, run.lay.qubits_of("B"), run.lay.total_qubits)
        psi0 = t[0] * np.sqrt(2)
        psi1 = t[1] * np.sqrt(2)
        predicted = 0.5 + 0.5 * float(np.real(np.vdot(psi0, psi1)))
        return run.p_bell, predicted

    # -- cheat oracle -----------------------------------------------------------

    def ascent_problem(self, private_qubits: int = 2) -> AscentProblem:
        """Free bundle + per-challenge response slots for the prover oracle."""
        lay = self.layout(private_qubits)
        weight = 1.0 / (self.r - 1)
        branches = tuple(Branch(weight, self._challenge_steps(i, lay))
                         for i in range(1, self.r))
        return AscentProblem(lay.total_qubits, branches, self.verifier_start)


def as_three_message(collapsed: CollapsedProtocol) -> InteractiveProtocol:
    """Exact standard-form cast of a two-round collapse.

    The verifier's extra wires hold an output qubit O, a deferred-check flag
    F, the Bell control B, a store S2 for the incoming workspace snapshot and
    a junk slot J that swallows whatever the prover shipped on the Bell wire
    Bw; the flag defers the snapshot test to the final measurement, and a
    swap moves the snapshot into verifier-held storage so the returned
    message register carries only fresh zeros. The honest prover is the
    native one: the snapshot bundle, then the reply to challenge 1.
    Acceptance statistics match the native runner exactly.
    """
    base = collapsed.base
    if collapsed.r != 2:
        raise ConfigError("standard-form cast is implemented for two rounds")
    w, m, rq = base.w_qubits, base.m_qubits, base.r_qubits
    prover = RegisterLayout.of(("R1", rq), ("R2", rq), ("W2", w), ("M1", m), ("M2", m),
                               ("Bw", 1))
    verifier = RegisterLayout.of(("O", 1), ("F", 1), ("B", 1), ("W1", w), ("S2", w),
                                 ("J", 1), *prover.registers[2:])
    # The whole cast on (R, W, M), laid out before any dense allocation so
    # that it is held to the qubit cap first.
    RegisterLayout.of(*prover.registers[:2], *verifier.registers)
    r_std = 2 * rq
    m_std = prover.total_qubits - r_std
    v = verifier.qubits_of_all

    swap_w = swap_registers(w)
    acc = accept_projector(base.verifier_unitaries[-1])
    flag_write = np.kron(acc, X) + np.kron(np.eye(acc.shape[0]) - acc, np.eye(2))
    v1 = [
        (swap_w, v(["W2", "S2"])),
        (flag_write, v(["S2", "M2", "F"])),
        (H, v(["B"])),
        (CNOT, v(["B", "J"])),
        (swap_registers(1), v(["J", "Bw"])),
        *linalg.placed(base.verifier_rounds[0], v(["W1", "M1"])),
        (_controlled_swap(w), v(["B", "W1", "S2"])),
    ]

    accept_write = np.kron(np.kron(P0, P1), X)
    accept_write += np.kron(np.eye(4, dtype=complex) - np.kron(P0, P1),
                            np.eye(2, dtype=complex))
    v2 = [(CNOT, v(["B", "Bw"])), (H, v(["B"])), (accept_write, v(["B", "F", "O"]))]

    vec, snaps = collapsed._snapshots(base.honest)
    column = snaps.concat(RegisterLayout.single("Bw", 1))
    bundle = linalg.permute_vector(np.kron(vec, linalg.basis_vector(0, 2)),
                                   column.qubits_of_all(prover.names), prover.total_qubits)
    p1 = linalg.complete_to_unitary(bundle)
    p2 = _reply_gates(base.honest, prover, 1, "Bw")

    psi_v_std = np.kron(
        np.kron(linalg.basis_vector(0, 8), base.psi_v),
        linalg.basis_vector(0, 2 ** (w + 1)))
    return InteractiveProtocol(
        PureState(psi_v_std, RegisterLayout.single("W", verifier.total_qubits - m_std)),
        r_std, m_std, [v1, v2], [p1, p2],
    )


@dataclass(frozen=True)
class CollapsedSimulationReport:
    challenge: int
    accept_check_probability: float
    bell_check_probability: float
    bell_pair_fidelity: float
    factorization_residual: float


def hv_simulate_collapsed(collapsed: CollapsedProtocol, sim: Strategy,
                          challenge: int) -> CollapsedSimulationReport:
    """Run the simulator transcript through the verifier's checks.

    With an exact round simulator the Bell test passes with probability one
    and the pre-measurement state factorizes into a maximally entangled
    (B, Bp) pair times a product of identical snapshots; the residual is the
    distance of the reduced pair from that maximally entangled state.
    """
    run = collapsed._run(collapsed.simulator_strategy(sim), challenge)
    if run is None:
        raise ZeroProbabilityError(
            f"challenge {challenge}: the accept check passes with probability zero")
    # The reduced (B, Bp) state before the verifier's controlled-X,
    # normalized on the accept-check branch.
    pair = linalg.partial_trace_vector(run.pre_cnot / np.linalg.norm(run.pre_cnot),
                                       run.lay.qubits_of_all(["B", "Bp"]), run.lay.total_qubits)
    fid = float(np.real(np.vdot(BELL, pair @ BELL)))
    residual = linalg.half_trace_norm(pair - np.outer(BELL, BELL.conj()))
    return CollapsedSimulationReport(challenge, run.p_acc, run.p_bell, fid, residual)


# -- helpers -------------------------------------------------------------------


def _strip_w(snapshot: np.ndarray, base: InteractiveProtocol) -> np.ndarray:
    """Remove the product psi_v factor from a first-round snapshot, leaving
    the (R, M) part."""
    lay = base.layout
    t = linalg.split(snapshot, lay.qubits_of("W"), lay.total_qubits)
    rm_part = base.psi_v.conj() @ t
    return rm_part / np.linalg.norm(rm_part)


def _reply_gates(prover: Strategy, lay: RegisterLayout, i: int, bell: str) -> list:
    """The reply to challenge i, on layout lay, of a prover of the base: its
    slot P_i+1 on (R_i, M_i), then the swap of (M_i, R_i) with (M_i+1,
    R_i+1) controlled on the Bell wire."""
    pair = lay.size_of(f"M{i}") + lay.size_of(f"R{i}")
    return [
        *bind(((f"P{i + 1}", tuple(lay.qubits_of_all([f"R{i}", f"M{i}"]))),), prover.slots),
        (_controlled_swap(pair),
         lay.qubits_of_all([bell, f"M{i}", f"R{i}", f"M{i + 1}", f"R{i + 1}"])),
    ]


def _controlled_swap(block: int) -> np.ndarray:
    """SWAP of two `block`-qubit registers controlled on one leading qubit."""
    return controlled(swap_registers(block))
