"""Optimal-prover analysis for small protocols.

Two routes are kept deliberately independent and cross-checked in tests:

* `optimal_three_message_value` computes the squared largest singular value
  of the product of the accepting projector and the reachable-subspace
  projector (the squared cosine of the smallest principal angle).
* `alternating_ascent` maximizes acceptance over explicit prover unitaries,
  one polar-alignment update per round, monotone in a pure-overlap
  surrogate, with no closed-form knowledge.

Resolved convention (verified numerically by the oracle): the closed form is
the squared top singular value, not its fourth power, and it is exactly the
maximum acceptance of the game in which the prover commits its state before
the verifier's challenge unitary and cannot act afterwards (freeze the final
prover slot to recover it). A prover that does get a final move can strictly
exceed it by re-steering the message register against the final test, so
composite soundness bounds consume the unrestricted oracle value instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from qpzk.core import linalg
from qpzk.core.operators import P1, projector_onto
from qpzk.core.sampling import random_amplitudes, random_unitary
from qpzk.core.states import PureState
from qpzk.errors import ConfigError, DimensionMismatchError
from qpzk.protocol import InteractiveProtocol

DEFAULT_ITERS = 200
DEFAULT_RESTARTS = 16
DEFAULT_TOL = 1e-10


def optimal_three_message_value(v1: np.ndarray, v2: np.ndarray, psi_v: PureState,
                                m_qubits: int) -> float:
    """Maximum acceptance of the 3-message protocol specified by (v1, v2).

    Builds the accepting projector v2^dag (|1><1| x Id) v2 and the reachable
    projector v1 (|psi_v><psi_v| x Id_M) v1^dag on the W M space and returns
    the squared largest singular value of their product.
    """
    w_qubits = psi_v.n_qubits
    n = w_qubits + m_qubits
    dim = 2 ** n
    if v1.shape != (dim, dim) or v2.shape != (dim, dim):
        raise DimensionMismatchError("verifier unitaries must act on W M")
    accept_first_w = linalg.embed(P1, [0], n)
    pi_a = v2.conj().T @ accept_first_w @ v2
    psi_proj = projector_onto(psi_v.amplitudes)
    pi_b = v1 @ np.kron(psi_proj, np.eye(2 ** m_qubits, dtype=complex)) @ v1.conj().T
    top = np.linalg.svd(pi_a @ pi_b, compute_uv=False)[0]
    return float(top ** 2)


# -- alternating-ascent engine ----------------------------------------------


@dataclass(frozen=True)
class FixedStep:
    """A known operator (unitary, projector or POVM square root)."""

    matrix: np.ndarray
    targets: tuple[int, ...]


@dataclass(frozen=True)
class SlotStep:
    """A prover-chosen unitary, identified by slot id."""

    slot: str
    targets: tuple[int, ...]


Step = Union[FixedStep, SlotStep]


@dataclass(frozen=True)
class Branch:
    """One classical branch of a protocol: weight times ||steps . init||^2."""

    weight: float
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class AscentProblem:
    """Maximize sum_b weight_b ||T_b(U) phi||^2 over slot unitaries and the
    free part of the initial product state."""

    n_qubits: int
    branches: tuple[Branch, ...]
    fixed_init: Optional[np.ndarray] = None  # vector on fixed_qubits
    fixed_qubits: tuple[int, ...] = ()

    def __post_init__(self):
        seen: set[str] = set()
        for b in self.branches:
            for s in b.steps:
                if isinstance(s, SlotStep):
                    if s.slot in seen:
                        raise ConfigError(
                            f"slot {s.slot!r} occurs in more than one step; "
                            "give every step its own slot")
                    seen.add(s.slot)

    @property
    def free_qubits(self) -> tuple[int, ...]:
        fixed = set(self.fixed_qubits)
        return tuple(q for q in range(self.n_qubits) if q not in fixed)

    def slot_specs(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for b in self.branches:
            for s in b.steps:
                if isinstance(s, SlotStep):
                    out[s.slot] = len(s.targets)
        return out


@dataclass
class AscentResult:
    value: float
    slots: dict[str, np.ndarray]
    initial: np.ndarray
    history: list[float] = field(default_factory=list)


def _assemble(problem: AscentProblem, free_vec: Optional[np.ndarray]) -> np.ndarray:
    """Full initial vector from the fixed part and the free part."""
    n = problem.n_qubits
    if not problem.free_qubits:
        full = problem.fixed_init
        if full is None or full.shape[0] != 2 ** n:
            raise DimensionMismatchError("fixed initial vector has wrong dim")
        return full
    if problem.fixed_init is None or not problem.fixed_qubits:
        assert free_vec is not None
        return free_vec
    fixed_q = list(problem.fixed_qubits)
    free_q = list(problem.free_qubits)
    combined = np.kron(problem.fixed_init, free_vec)
    return linalg.permute_vector(combined, np.argsort(fixed_q + free_q), n)


def apply_steps(vec: np.ndarray, steps: Sequence[Step], slots: dict, n: int,
                adjoint: bool = False) -> np.ndarray:
    """Apply steps in order to an n-qubit vector, each slot step as
    slots[slot]; with adjoint, apply their daggers in reverse order."""
    for s in (reversed(steps) if adjoint else steps):
        mat = slots[s.slot] if isinstance(s, SlotStep) else s.matrix
        if adjoint:
            mat = mat.conj().T
        vec = linalg.apply_to_vector(mat, vec, list(s.targets), n)
    return vec


def _branch_value(problem, branch, slots, init) -> float:
    out = apply_steps(init, branch.steps, slots, problem.n_qubits)
    return branch.weight * float(np.linalg.norm(out) ** 2)


def _objective(problem, slots, init) -> float:
    return sum(_branch_value(problem, b, slots, init) for b in problem.branches)


def _slot_contraction(problem, branch, slots, init, z, slot_index) -> np.ndarray:
    """Environment contraction A with <z| after (U x Id) before |init> = Tr(U A)."""
    n = problem.n_qubits
    steps = branch.steps
    before = apply_steps(init, steps[:slot_index], slots, n)
    after_z = apply_steps(z, steps[slot_index + 1:], slots, n, adjoint=True)
    targets = list(steps[slot_index].targets)
    perm = targets + [q for q in range(n) if q not in targets]
    x = linalg.permute_vector(before, perm, n).reshape(2 ** len(targets), -1)
    y = linalg.permute_vector(after_z, perm, n).reshape(2 ** len(targets), -1)
    return x @ y.conj().T


def _align(a: np.ndarray) -> np.ndarray:
    """Unitary maximizing Re Tr(U a): polar alignment from the SVD of a."""
    u, _, vh = np.linalg.svd(a)
    return (u @ vh).conj().T


def alternating_ascent(
    problem: AscentProblem,
    rng: np.random.Generator,
    iters: int = DEFAULT_ITERS,
    restarts: int = DEFAULT_RESTARTS,
    tol: float = DEFAULT_TOL,
    warm_starts: Sequence[dict] = (),
) -> AscentResult:
    """Monotone alternating maximization over slot unitaries and free init.

    Each slot update aligns the prover unitary with the SVD of the
    environment-contracted operator; each free-init update takes the top
    eigenvector of the branch-averaged objective. The reported value never
    decreases across iterations, and extra restarts can only improve it.
    """
    slot_specs = problem.slot_specs()
    free_dim = 2 ** len(problem.free_qubits) if problem.free_qubits else 0
    best: Optional[AscentResult] = None

    starts: list[Optional[dict]] = list(warm_starts) + [None] * restarts
    for start in starts:
        if start is not None:
            slots = {k: np.asarray(v, dtype=complex) for k, v in start["slots"].items()}
            free = start.get("free")
            if free is not None:
                free = np.asarray(free, dtype=complex)
            elif free_dim:
                free = random_amplitudes(free_dim, rng)
        else:
            slots = {k: random_unitary(2 ** a, rng) for k, a in slot_specs.items()}
            free = random_amplitudes(free_dim, rng) if free_dim else None

        init = _assemble(problem, free)
        value = _objective(problem, slots, init)
        history = [value]
        for _ in range(iters):
            # z-step + slot updates per branch.
            for branch in problem.branches:
                out = apply_steps(init, branch.steps, slots, problem.n_qubits)
                norm = np.linalg.norm(out)
                if norm < 1e-14:
                    z = random_amplitudes(2 ** problem.n_qubits, rng)
                else:
                    z = out / norm
                for idx, s in enumerate(branch.steps):
                    if not isinstance(s, SlotStep):
                        continue
                    a = _slot_contraction(problem, branch, slots, init, z, idx)
                    slots[s.slot] = _align(a)
                    out = apply_steps(init, branch.steps, slots, problem.n_qubits)
                    norm = np.linalg.norm(out)
                    if norm > 1e-14:
                        z = out / norm
            # Free-init step: top eigenvector of the averaged objective.
            if free_dim:
                h = np.zeros((free_dim, free_dim), dtype=complex)
                for branch in problem.branches:
                    out = apply_steps(init, branch.steps, slots, problem.n_qubits)
                    norm = np.linalg.norm(out)
                    if norm < 1e-14:
                        continue
                    z = out / norm
                    v = _init_contraction(problem, branch, slots, z)
                    h += branch.weight * np.outer(v, v.conj())
                if np.linalg.norm(h) > 0:
                    vals, vecs = np.linalg.eigh(h)
                    free = vecs[:, -1]
                    init = _assemble(problem, free)
            new_value = _objective(problem, slots, init)
            history.append(new_value)
            if new_value - value < tol:
                value = max(value, new_value)
                break
            value = new_value
        result = AscentResult(value, dict(slots), init, history)
        if best is None or result.value > best.value:
            best = result
    assert best is not None
    return best


def _init_contraction(problem, branch, slots, z) -> np.ndarray:
    """Vector v with <z| T_b |phi(free)> = <v|free> for the free-init step."""
    n = problem.n_qubits
    t_dag_z = apply_steps(z, branch.steps, slots, n, adjoint=True)
    free_q = list(problem.free_qubits)
    fixed_q = list(problem.fixed_qubits)
    perm = free_q + fixed_q
    t = t_dag_z.reshape((2,) * n).transpose(perm).reshape(2 ** len(free_q), -1)
    if problem.fixed_init is None:
        return t.reshape(-1)
    return t @ problem.fixed_init.conj()


# -- protocol adapters -------------------------------------------------------


def protocol_ascent_problem(
    protocol: InteractiveProtocol,
    ancilla_qubits: int = 0,
    frozen_slots: tuple[str, ...] = (),
) -> AscentProblem:
    """Single-branch problem: prover slots per round, fixed initial state.

    Slots named in frozen_slots are pinned to the identity (their step is
    dropped), which models a prover that stays idle in those rounds.
    """
    n = protocol.layout.total_qubits + ancilla_qubits
    base = protocol.layout
    rm = base.qubits_of_all(["R", "M"]) + list(range(base.total_qubits, n))
    wm = base.qubits_of_all(["W", "M"])
    first_w = base.qubits_of("W")[0]
    steps: list[Step] = []
    for i in range(protocol.rounds):
        slot = f"P{i + 1}"
        if slot not in frozen_slots:
            steps.append(SlotStep(slot, tuple(rm)))
        steps.extend(FixedStep(*g) for g in linalg.placed(protocol.verifier_rounds[i], wm))
    steps.append(FixedStep(P1, (first_w,)))
    init = protocol.initial.amplitudes
    if ancilla_qubits:
        init = np.kron(init, linalg.basis_vector(0, 2 ** ancilla_qubits))
    return AscentProblem(
        n_qubits=n,
        branches=(Branch(1.0, tuple(steps)),),
        fixed_init=init,
        fixed_qubits=tuple(range(n)),
    )


def brute_force_prover_value(
    protocol: InteractiveProtocol,
    rng: np.random.Generator,
    iters: int = DEFAULT_ITERS,
    restarts: int = DEFAULT_RESTARTS,
    ancilla_qubits: int = 0,
    tol: float = DEFAULT_TOL,
    final_move_frozen: bool = False,
) -> float:
    """Best acceptance found over unitary prover strategies with an optional
    fresh ancilla; independent oracle for the closed-form soundness values.

    With final_move_frozen the prover's last round is pinned to the identity,
    which is the committed-state game valued by the principal-angle formula.
    Only protocols with at most three rounds are supported.
    """
    if protocol.rounds > 3:
        raise ConfigError("brute-force optimization supports at most 3 rounds")
    frozen = (f"P{protocol.rounds}",) if final_move_frozen else ()
    problem = protocol_ascent_problem(protocol, ancilla_qubits, frozen_slots=frozen)
    # One warm start from the honest prover keeps the result a true upper
    # envelope of the honest value even if random restarts stall.
    anc_eye = np.eye(2 ** ancilla_qubits, dtype=complex)
    honest = {
        f"P{i + 1}": np.kron(protocol.prover_unitaries[i], anc_eye)
        for i in range(protocol.rounds)
        if f"P{i + 1}" not in frozen
    }
    result = alternating_ascent(
        problem, rng, iters=iters, restarts=restarts, tol=tol,
        warm_starts=[{"slots": honest}] if honest else (),
    )
    return result.value


def three_message_protocol(
    v1: np.ndarray,
    v2: np.ndarray,
    psi_v: PureState,
    m_qubits: int,
    r_qubits: Optional[int] = None,
) -> InteractiveProtocol:
    """The 3-message protocol (prover free, verifier v1 then v2) with the
    verifier starting in psi_v; prover workspace sized to steer W M fully."""
    w = psi_v.n_qubits
    r = r_qubits if r_qubits is not None else w + m_qubits
    rm_dim = 2 ** (r + m_qubits)
    ident = np.eye(rm_dim, dtype=complex)
    return InteractiveProtocol.from_verifier_start(
        psi_v, r, m_qubits, [v1, v2], [ident, ident]
    )
