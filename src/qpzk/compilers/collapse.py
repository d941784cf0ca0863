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
from typing import Callable

import numpy as np

from qpzk.core import linalg
from qpzk.core.operators import (H, P0, P1, X, CNOT, controlled, projector_onto,
                                 swap_registers)
from qpzk.core.registers import RegisterLayout, qubit_cap
from qpzk.core.states import PureState
from qpzk.errors import ConfigError, DimensionMismatchError
from qpzk.optimize import AscentProblem, Branch, bind
from qpzk.protocol import HONEST, InteractiveProtocol, ProverStrategy, initial_workspace_state
from qpzk.compilers.types import HvzkSimulator

PLUS_PROJ = projector_onto(np.array([1, 1]) / np.sqrt(2))


def collapsed_soundness(zeta: float, r: int) -> float:
    """1 - (1 - zeta)^2 / (16 (r - 1)^2); monotone in both arguments."""
    if r < 2:
        raise ConfigError("round collapse needs at least two rounds")
    if not 0.0 <= zeta <= 1.0:
        raise ConfigError("base soundness must lie in [0, 1]")
    return 1.0 - (1.0 - zeta) ** 2 / (16.0 * (r - 1) ** 2)


@dataclass(frozen=True)
class CollapsedStrategy:
    """Prover behavior: the message-1 bundle and one response per challenge.

    bundle: pure state on (W_2..W_r, M_1..M_r, private wires), given as a
    preparation over those wires in that order. responses maps challenge i
    (1-based) to (matrix, wire names) acting only on prover-visible wires:
    M_i, M_i+1, Bp and private wires.
    """

    bundle: np.ndarray
    private_qubits: int
    responses: Callable[[int], tuple[np.ndarray, tuple[str, ...]]]
    name: str = "custom"


class CollapsedProtocol:
    """Executable stage-II object with exact branch evaluation."""

    def __init__(self, base: InteractiveProtocol):
        if base.rounds < 2:
            raise ConfigError("round collapse needs at least two rounds")
        self.base = base
        self.r = base.rounds
        w, m = base.w_qubits, base.m_qubits
        if 2 + self.r * (w + m) > qubit_cap():
            raise ConfigError("collapsed verifier registers exceed the qubit cap")
        self.psi_v = initial_workspace_state(base)

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

    def snapshot(self, k: int, prover: ProverStrategy = HONEST) -> np.ndarray:
        """State after the k-th prover move of the base protocol, on wires
        (R, W, M); a prover with its own round unitaries stands in for the
        honest one (simulator use)."""
        return self.base.evolve(prover, upto_message=2 * k - 1).amplitudes

    def honest_strategy(self) -> CollapsedStrategy:
        return self._snapshot_strategy(HONEST, "honest")

    def simulator_strategy(self, sim: HvzkSimulator) -> CollapsedStrategy:
        """The round simulator driving the same interface as a prover; its
        private register stands in for the prover workspace."""
        if len(sim.unitaries) != self.r:
            raise ConfigError("simulator round count mismatch")
        if sim.m_qubits != self.base.m_qubits or sim.s_qubits != self.base.r_qubits:
            raise DimensionMismatchError("simulator register sizes mismatch")
        return self._snapshot_strategy(ProverStrategy(sim.unitaries),
                                       f"simulator:{sim.label}")

    def _snapshot_strategy(self, prover: ProverStrategy, name: str) -> CollapsedStrategy:
        base = self.base
        rounds = base.prover_unitaries if prover.unitaries is None else prover.unitaries
        w, m, rq = base.w_qubits, base.m_qubits, base.r_qubits
        r = self.r
        # Bundle wires: (W_2..W_r, M_1..M_r, P = R_1..R_r).
        n_bundle = (r - 1) * w + r * m + r * rq
        snaps = [self.snapshot(k, prover) for k in range(1, r + 1)]
        # Assemble product of snapshots on (R_k, W_k, M_k) blocks, then move
        # wires into bundle order. Snapshot 1 contributes no W wire (the
        # verifier owns W_1), so its W block must be stripped: the honest
        # snapshot 1 has W = psi_v in product form.
        vec = np.array([1.0], dtype=complex)
        for k, snap in enumerate(snaps, start=1):
            if k == 1:
                snap = _strip_w(snap, base)
            vec = np.kron(vec, snap)
        # Current wire order: (R1, M1), (R2, W2, M2), ..., (Rr, Wr, Mr).
        order = _bundle_order(r, w, m, rq)
        vec = linalg.permute_vector(vec, order, n_bundle)

        def responses(i: int):
            # Apply the k = i+1 round unitary to (R_i, M_i) then swap the
            # (M, R) pairs controlled on Bp.
            mat_round = rounds[i]
            local_names = (f"M{i}", f"M{i + 1}", "Bp", "P")
            nm, nr = m, rq
            n_local = 2 * nm + 1 + r * nr
            # Local wire map: M_i [0..nm), M_{i+1} [nm..2nm), Bp, P = R_1..R_r.
            r_i = list(range(2 * nm + 1 + (i - 1) * nr, 2 * nm + 1 + i * nr))
            r_ip1 = list(range(2 * nm + 1 + i * nr, 2 * nm + 1 + (i + 1) * nr))
            m_i = list(range(nm))
            m_ip1 = list(range(nm, 2 * nm))
            bp = [2 * nm]
            return linalg.gate_product([
                (mat_round, r_i + m_i),
                (_controlled_swap(nm + nr), bp + m_i + r_i + m_ip1 + r_ip1),
            ], n_local), local_names

        return CollapsedStrategy(vec, r * rq, responses, name)

    # -- exact execution -------------------------------------------------------

    def initial_joint(self, strat: CollapsedStrategy) -> PureState:
        lay = self.layout(strat.private_qubits)
        n = lay.total_qubits
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        vec = np.kron(np.kron(bell, self.psi_v), strat.bundle)
        # Wires currently: (B, Bp, W1, bundle...) = target layout order.
        if vec.shape[0] != 2 ** n:
            raise DimensionMismatchError("bundle size does not match the layout")
        return PureState(vec, lay)

    def accept_projector(self) -> np.ndarray:
        base = self.base
        v_r = base.verifier_unitaries[-1]
        pi1 = linalg.embed(P1, [0], base.w_qubits + base.m_qubits)
        return v_r.conj().T @ pi1 @ v_r

    def _challenge_steps(self, challenge: int, lay: RegisterLayout,
                         reply_wires: tuple[str, ...]) -> tuple:
        """The verifier's run for one challenge i on layout lay, as gates:
        accept projector on W_r M_r, V_i on W_i M_i, swap of W_i and W_i+1
        controlled on B, the prover's reply as slot U_i on reply_wires,
        controlled-X from B to Bp, then |+><+| on B."""
        i = challenge
        wires = lay.qubits_of_all
        return (
            (self.accept_projector(), tuple(wires([f"W{self.r}", f"M{self.r}"]))),
            (self.base.verifier_unitaries[i - 1], tuple(wires([f"W{i}", f"M{i}"]))),
            (_controlled_swap(self.base.w_qubits), tuple(wires(["B", f"W{i}", f"W{i + 1}"]))),
            (f"U{i}", tuple(wires(reply_wires))),
            (CNOT, tuple(wires(["B", "Bp"]))),
            (PLUS_PROJ, tuple(wires(["B"]))),
        )

    def challenge_outcome(self, strat: CollapsedStrategy, challenge: int,
                          keep_state: bool = False):
        """Exact probabilities for one challenge: (p_acc_check, p_bell_given
        _acc, overall); optionally the final unnormalized vector."""
        if not 1 <= challenge <= self.r - 1:
            raise ConfigError(f"challenge {challenge} outside 1..{self.r - 1}")
        mat, names = strat.responses(challenge)
        if not set(names) <= set(self.prover_wire_names(challenge)):
            raise ConfigError(f"strategy touches verifier wires: {names}")
        lay = self.layout(strat.private_qubits)
        n = lay.total_qubits
        gates = bind(self._challenge_steps(challenge, lay, names), {f"U{challenge}": mat})

        vec = linalg.apply_gates(gates[:1], self.initial_joint(strat).amplitudes, n)
        p_acc = float(np.linalg.norm(vec) ** 2)
        if p_acc <= 1e-15:
            return (0.0, 0.0, 0.0, None) if keep_state else (0.0, 0.0, 0.0)
        pre_cnot = linalg.apply_gates(gates[1:4], vec, n)
        vec = linalg.apply_gates(gates[4:5], pre_cnot, n)
        final = linalg.apply_gates(gates[5:], vec, n)
        p_bell = float(np.linalg.norm(final) ** 2) / p_acc
        overall = p_acc * p_bell
        if keep_state:
            return p_acc, p_bell, overall, (pre_cnot, vec, final, lay)
        return p_acc, p_bell, overall

    def acceptance(self, strat: CollapsedStrategy) -> float:
        """Exact acceptance, averaged over the uniform challenge."""
        vals = [self.challenge_outcome(strat, i)[2] for i in range(1, self.r)]
        return float(np.mean(vals))

    def branch_overlap_identity(self, strat: CollapsedStrategy, challenge: int):
        """The Bell-test probability against 1/2 + Re<psi0|psi1>/2 computed
        from the two control branches of the post-controlled-X state."""
        p_acc, p_bell, overall, kept = self.challenge_outcome(
            strat, challenge, keep_state=True)
        _pre, vec, _final, lay = kept
        # Normalize the post-check state, split on the B wire.
        vec = vec / np.linalg.norm(vec)
        b_wire = lay.qubits_of("B")[0]
        n = lay.total_qubits
        t = linalg.permute_vector(vec, [b_wire] + [q for q in range(n) if q != b_wire], n)
        t = t.reshape(2, -1)
        psi0 = t[0] * np.sqrt(2)
        psi1 = t[1] * np.sqrt(2)
        predicted = 0.5 + 0.5 * float(np.real(np.vdot(psi0, psi1)))
        return p_bell, predicted

    def bell_pair_reduced(self, strat: CollapsedStrategy, challenge: int) -> np.ndarray:
        """Reduced (B, Bp) density right before the verifier's controlled-X,
        normalized on the accept-check branch."""
        *_, kept = self.challenge_outcome(strat, challenge, keep_state=True)
        pre_cnot, _vec, _final, lay = kept
        pre_cnot = pre_cnot / np.linalg.norm(pre_cnot)
        keep = lay.qubits_of_all(["B", "Bp"])
        return linalg.partial_trace_vector(pre_cnot, keep, lay.total_qubits)

    # -- cheat oracle -----------------------------------------------------------

    def ascent_problem(self, private_qubits: int = 2) -> AscentProblem:
        """Free bundle + per-challenge response slots for the prover oracle."""
        lay = self.layout(private_qubits)
        weight = 1.0 / (self.r - 1)
        branches = tuple(
            Branch(weight, self._challenge_steps(i, lay, self.prover_wire_names(i)))
            for i in range(1, self.r))
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        fixed = np.kron(bell, self.psi_v)
        fixed_qubits = tuple(lay.qubits_of_all(["B", "Bp", "W1"]))
        return AscentProblem(lay.total_qubits, branches, fixed, fixed_qubits)


def collapse_rounds(base: InteractiveProtocol) -> CollapsedProtocol:
    return CollapsedProtocol(base)


def as_three_message(collapsed: CollapsedProtocol) -> InteractiveProtocol:
    """Exact standard-form cast of a two-round collapse.

    The verifier's extra wires hold an output qubit O, a deferred-check flag
    F, the Bell control B, a store for the incoming workspace snapshot and a
    junk slot that swallows whatever the prover shipped on the Bell wire;
    the flag defers the snapshot test to the final measurement, and a swap
    moves the snapshot into verifier-held storage so the returned message
    register carries only fresh zeros. Acceptance statistics match the
    native runner exactly.
    """
    base = collapsed.base
    if collapsed.r != 2:
        raise ConfigError("standard-form cast is implemented for two rounds")
    w, m, rq = base.w_qubits, base.m_qubits, base.r_qubits
    total = 2 * rq + (3 + 2 * w + 1) + (w + 2 * m + 1)
    if total > qubit_cap():
        raise ConfigError(
            f"standard-form cast needs {total} qubits, cap is {qubit_cap()}")

    # W_std wires: O, F, B, W1 (w), S2 (w), J. M_std: W2w (w), M1, M2, Bw.
    w_std = 3 + 2 * w + 1
    m_std = w + 2 * m + 1
    O, F, B = 0, 1, 2
    W1 = list(range(3, 3 + w))
    S2 = list(range(3 + w, 3 + 2 * w))
    J = 3 + 2 * w
    off = w_std
    W2w = list(range(off, off + w))
    M1 = list(range(off + w, off + w + m))
    M2 = list(range(off + w + m, off + w + 2 * m))
    Bw = off + w + 2 * m

    swap_w = swap_registers(w)
    acc = collapsed.accept_projector()
    flag_write = np.kron(acc, X) + np.kron(np.eye(acc.shape[0]) - acc, np.eye(2))
    v1 = [
        (swap_w, W2w + S2),
        (flag_write, S2 + M2 + [F]),
        (H, [B]),
        (CNOT, [B, J]),
        (swap_registers(1), [J, Bw]),
        *linalg.placed(base.verifier_rounds[0], W1 + M1),
        (_controlled_swap(w), [B] + W1 + S2),
    ]

    accept_write = np.kron(np.kron(P0, P1), X)
    accept_write += np.kron(np.eye(4, dtype=complex) - np.kron(P0, P1),
                            np.eye(2, dtype=complex))
    v2 = [(CNOT, [B, Bw]), (H, [B]), (accept_write, [B, F, O])]

    # Honest prover: prepare the snapshot bundle, then respond like the
    # native strategy (round-2 unitary plus the Bell-controlled pair swap).
    r_std = 2 * rq
    n_p = r_std + m_std
    chi1 = _strip_w(collapsed.snapshot(1), base)  # (R1, M1)
    phi2 = collapsed.snapshot(2)  # (R2, W2, M2)
    bundle = np.kron(np.kron(chi1, phi2), linalg.basis_vector(0, 2))
    # Source order: R1, M1, R2, W2, M2, Bw -> target R1, R2, W2, M1, M2, Bw.
    src = {}
    pos = 0
    for name, size in (("R1", rq), ("M1", m), ("R2", rq), ("W2", w),
                       ("M2", m), ("Bw", 1)):
        src[name] = list(range(pos, pos + size))
        pos += size
    order = src["R1"] + src["R2"] + src["W2"] + src["M1"] + src["M2"] + src["Bw"]
    bundle = linalg.permute_vector(bundle, order, n_p)
    p1 = linalg.complete_to_unitary(bundle)

    pR1 = list(range(rq))
    pR2 = list(range(rq, 2 * rq))
    pM1 = list(range(r_std + w, r_std + w + m))
    pM2 = list(range(r_std + w + m, r_std + w + 2 * m))
    pBw = r_std + w + 2 * m
    p2 = [
        *linalg.placed(base.prover_rounds[1], pR1 + pM1),
        (_controlled_swap(m + rq), [pBw] + pM1 + pR1 + pM2 + pR2),
    ]

    psi_v_std = np.kron(
        np.kron(linalg.basis_vector(0, 8), collapsed.psi_v),
        linalg.basis_vector(0, 2 ** (w + 1)))
    return InteractiveProtocol.from_verifier_start(
        PureState(psi_v_std, RegisterLayout.single("W", w_std)),
        r_std, m_std, [v1, v2], [p1, p2],
    )


@dataclass(frozen=True)
class CollapsedSimulationReport:
    challenge: int
    accept_check_probability: float
    bell_check_probability: float
    bell_pair_fidelity: float
    factorization_residual: float


def hv_simulate_collapsed(collapsed: CollapsedProtocol, sim: HvzkSimulator,
                          challenge: int) -> CollapsedSimulationReport:
    """Run the simulator transcript through the verifier's checks.

    With an exact round simulator the Bell test passes with probability one
    and the pre-measurement state factorizes into a maximally entangled
    (B, Bp) pair times a product of identical snapshots; the residual is the
    distance of the reduced pair from that maximally entangled state.
    """
    strat = collapsed.simulator_strategy(sim)
    p_acc, p_bell, _overall = collapsed.challenge_outcome(strat, challenge)
    pair = collapsed.bell_pair_reduced(strat, challenge)
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    fid = float(np.real(np.vdot(bell, pair @ bell)))
    residual = linalg.half_trace_norm(pair - np.outer(bell, bell.conj()))
    return CollapsedSimulationReport(challenge, p_acc, p_bell, fid, residual)


# -- helpers -------------------------------------------------------------------


def _strip_w(snapshot: np.ndarray, base: InteractiveProtocol) -> np.ndarray:
    """Remove the product psi_v factor from a first-round snapshot, leaving
    the (R, M) part."""
    lay = base.layout
    n = lay.total_qubits
    w = lay.qubits_of("W")
    rest = [q for q in range(n) if q not in w]
    t = linalg.permute_vector(snapshot, w + rest, n).reshape(2 ** len(w), -1)
    # Project onto the psi_v component; the remainder must vanish.
    psi_v = initial_workspace_state(base)
    rm_part = psi_v.conj() @ t
    norm = np.linalg.norm(rm_part)
    if abs(norm - 1.0) > 1e-9:
        raise ConfigError("first snapshot entangles the verifier workspace")
    return rm_part / norm


def _bundle_order(r: int, w: int, m: int, rq: int) -> list[int]:
    """Permutation taking snapshot-major wires to bundle order
    (W_2..W_r, M_1..M_r, R_1..R_r)."""
    # Source order: (R1, M1), then (Rk, Wk, Mk) for k = 2..r.
    src: dict[str, list[int]] = {}
    pos = 0
    src["R1"] = list(range(pos, pos + rq)); pos += rq
    src["M1"] = list(range(pos, pos + m)); pos += m
    for k in range(2, r + 1):
        src[f"R{k}"] = list(range(pos, pos + rq)); pos += rq
        src[f"W{k}"] = list(range(pos, pos + w)); pos += w
        src[f"M{k}"] = list(range(pos, pos + m)); pos += m
    order: list[int] = []
    for k in range(2, r + 1):
        order += src[f"W{k}"]
    for k in range(1, r + 1):
        order += src[f"M{k}"]
    for k in range(1, r + 1):
        order += src[f"R{k}"]
    return order


def _controlled_swap(block: int) -> np.ndarray:
    """SWAP of two `block`-qubit registers controlled on one leading qubit."""
    return controlled(swap_registers(block))
