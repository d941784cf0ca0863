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

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from qpzk.core import linalg
from qpzk.core.operators import P1, accept_projector, projector_onto
from qpzk.core.sampling import random_amplitudes, random_unitary
from qpzk.core.states import PureState
from qpzk.errors import ConfigError, DimensionMismatchError
from qpzk.protocol import InteractiveProtocol, Strategy, bind, final_state, run_steps

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
    pi_a = accept_projector(v2)
    psi_proj = projector_onto(psi_v.amplitudes)
    pi_b = v1 @ np.kron(psi_proj, np.eye(2 ** m_qubits, dtype=complex)) @ v1.conj().T
    top = np.linalg.svd(pi_a @ pi_b, compute_uv=False)[0]
    return float(top ** 2)


# -- alternating-ascent engine ----------------------------------------------


@dataclass(frozen=True)
class Branch:
    """One classical branch of a protocol: weight times ||steps . init||^2.

    steps is a gate list of (matrix, wires); a prover-chosen unitary stands
    in it as (slot name, wires)."""

    weight: float
    steps: tuple


@dataclass(frozen=True)
class AscentProblem:
    """Maximize sum_b weight_b ||T_b(U) phi||^2 over slot unitaries and the
    free part of the initial product state. The fixed start, if any, is the
    state of the leading qubits; the free part is the rest."""

    n_qubits: int
    branches: tuple[Branch, ...]
    fixed_init: Optional[np.ndarray] = None

    def __post_init__(self):
        dims = [(2 ** k,) for k in range(self.n_qubits + 1)]
        if self.fixed_init is not None and self.fixed_init.shape not in dims:
            raise DimensionMismatchError("fixed initial vector is not a state of leading qubits")
        seen: set[str] = set()
        for b in self.branches:
            for op, _ in b.steps:
                if isinstance(op, str):
                    if op in seen:
                        raise ConfigError(
                            f"slot {op!r} occurs in more than one step; "
                            "give every step its own slot")
                    seen.add(op)

    @property
    def free_dim(self) -> int:
        """Dimension of the free part of the start; 0 when it is all fixed."""
        fixed_dim = 1 if self.fixed_init is None else len(self.fixed_init)
        free_dim = 2 ** self.n_qubits // fixed_dim
        return free_dim if free_dim > 1 else 0

    def slot_specs(self) -> dict[str, int]:
        return {op: len(wires) for b in self.branches for op, wires in b.steps
                if isinstance(op, str)}

    def branch_value(self, strategy: Strategy, b: int) -> float:
        """||T_b(U) phi||^2 of branch b, unweighted, at the strategy's slots
        and start."""
        free = strategy.free
        want = (self.free_dim,) if self.free_dim else ()
        if np.shape(free) != want:
            raise DimensionMismatchError(
                f"strategy {strategy.name!r}: the start's free part has shape "
                f"{np.shape(free)}, the problem takes {want or 'none (an all-fixed start)'}")
        out = final_state(run_steps(self.branches[b].steps, strategy.slots,
                                    _assemble(self, free), self.n_qubits))
        return float(np.linalg.norm(out) ** 2)

    def value(self, strategy: Strategy) -> float:
        """The objective at the strategy: the weighted sum of its branch values."""
        return sum(b.weight * self.branch_value(strategy, i)
                   for i, b in enumerate(self.branches))


@dataclass
class AscentResult:
    value: float
    strategy: Strategy
    history: list[float] = field(default_factory=list)


def _assemble(problem: AscentProblem, free_vec: Optional[np.ndarray]) -> np.ndarray:
    """Full initial vector, or stack of them: the fixed start on the leading
    qubits, the free part on the rest."""
    if problem.fixed_init is None:
        return free_vec
    if not problem.free_dim:
        return problem.fixed_init
    return np.kron(problem.fixed_init, free_vec)


def _norms(stack: np.ndarray) -> np.ndarray:
    """The norm of each vector or matrix of a stack, bit for bit as
    np.linalg.norm takes it alone: sqrt(re.re + im.im), each a BLAS dot."""
    flat = stack.reshape(len(stack), 1, -1)
    re, im = flat.real, flat.imag
    return np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0]


def _unit(vecs: np.ndarray, norms: np.ndarray, ok: np.ndarray, other) -> np.ndarray:
    """vecs[i] / norms[i] where ok[i], other (or other[i]) elsewhere."""
    return np.where(ok[:, None], vecs / np.where(ok, norms, 1.0)[:, None], other)


def _traced_values(problem: AscentProblem, traces: list) -> list:
    norms = [_norms(t[-1]) for t in traces]
    return [sum(b.weight * float(nb[r] ** 2) for b, nb in zip(problem.branches, norms))
            for r in range(len(norms[0]))]


def _contraction(x: np.ndarray, y: np.ndarray, targets, n: int) -> np.ndarray:
    """Matrix A with <y| (U on targets) |x> = Tr(U A), for each start of a stack."""
    return linalg.split(x, targets, n) @ linalg.split(y, targets, n).conj().swapaxes(-1, -2)


def _align(a: np.ndarray) -> np.ndarray:
    """Unitary maximizing Re Tr(U a), or a stack of them: polar alignment
    from the SVD of a."""
    u, _, vh = np.linalg.svd(a)
    return (u @ vh).conj().swapaxes(-1, -2)


def _start(problem: AscentProblem, rng: np.random.Generator, start: Optional[Strategy]):
    """One start's slots and free part (None when the start is all fixed);
    a restart draws its slots, then its free part, and a warm start without
    a free part draws that. A warm start's gate-list slot is made dense on
    the slot's wires, and its slots that the problem lacks are dropped."""
    specs = problem.slot_specs()
    if start is None:
        slots = {k: random_unitary(2 ** a, rng) for k, a in specs.items()}
        free = None
    else:
        given = {k: start.slots[k] for k in specs}
        slots = {k: linalg.gate_product(v, specs[k]) if isinstance(v, tuple)
                 else np.asarray(v, dtype=complex) for k, v in given.items()}
        free = start.free
    if free is not None:
        return slots, np.asarray(free, dtype=complex)
    return slots, (random_amplitudes(problem.free_dim, rng) if problem.free_dim else None)


def alternating_ascent(
    problem: AscentProblem,
    rng: np.random.Generator,
    iters: int = DEFAULT_ITERS,
    restarts: int = DEFAULT_RESTARTS,
    tol: float = DEFAULT_TOL,
    warm_starts: Sequence[Strategy] = (),
) -> AscentResult:
    """Monotone alternating maximization over slot unitaries and free init.

    Each slot update aligns the prover unitary with the SVD of the
    environment-contracted operator; each free-init update takes the top
    eigenvector of the branch-averaged objective. The reported value never
    decreases across iterations, and extra restarts can only improve it.

    The starts (warm starts, then restarts) run as one stack along a leading
    axis: fixed gates act on all of them at once, slots are (starts, d, d)
    stacks, and the SVDs and eigh are stacked. A start stops, and leaves the
    stack, once an iteration gains less than tol. Each start's arithmetic is
    bit for bit that of a run of its own. Each branch keeps its state after
    every step (its trace): a slot update re-runs the branch from that
    slot's step, and all branches are re-run only when the inits change.

    Draws: all starts' initial draws come first, in start order. A branch
    output that vanishes at the start of an iteration gets a fresh random
    direction, drawn in start order and, within a start, in branch order.
    """
    n = problem.n_qubits
    drawn = [_start(problem, rng, s) for s in list(warm_starts) + [None] * restarts]
    slots = {k: np.stack([s[k] for s, _ in drawn]) for k in problem.slot_specs()}
    free = np.stack([f for _, f in drawn]) if problem.free_dim else None
    # Fixed gates as one-op stacks, so that every step acts on the stack.
    steps = [tuple((op if isinstance(op, str) else op[None], wires) for op, wires in b.steps)
             for b in problem.branches]
    rows = list(range(len(drawn)))  # the start of each stack row
    init = np.broadcast_to(_assemble(problem, free), (len(rows), 2 ** n))
    traces = [list(run_steps(st, slots, init, n)) for st in steps]
    value = _traced_values(problem, traces)
    history, results = [[v] for v in value], [None] * len(rows)

    def result(r: int) -> AscentResult:
        strategy = Strategy.computed({k: s[r] for k, s in slots.items()},
                                     None if free is None else free[r], "ascent")
        return AscentResult(value[r], strategy, history[rows[r]])

    for _ in range(iters):
        # A branch's output depends only on its own slots and the init, so
        # all of this iteration's directions are known here.
        norms = [_norms(t[-1]) for t in traces]
        zs = [_unit(t[-1], nb, nb >= 1e-14, 0) for t, nb in zip(traces, norms)]
        for r, b in itertools.product(range(len(rows)), range(len(steps))):
            if norms[b][r] < 1e-14:
                zs[b][r] = random_amplitudes(2 ** n, rng)
        # z-step + slot updates per branch.
        for bsteps, trace, z in zip(steps, traces, zs):
            for idx, (op, wires) in enumerate(bsteps):
                if isinstance(op, str):
                    after = linalg.adjoint(bind(bsteps[idx + 1:], slots))
                    a = _contraction(trace[idx], linalg.apply_gates(after, z, n), wires, n)
                    slots[op] = _align(a)
                    trace[idx:] = run_steps(bsteps[idx:], slots, trace[idx], n)
                    norm = _norms(trace[-1])
                    z = _unit(trace[-1], norm, norm > 1e-14, z)
        # Free-init step: top eigenvector of the averaged objective.
        if free is not None:
            h = np.zeros((len(rows),) + (problem.free_dim,) * 2, dtype=complex)
            for branch, bsteps, trace in zip(problem.branches, steps, traces):
                norm = _norms(trace[-1])
                ok = norm >= 1e-14
                z = _unit(trace[-1], norm, ok, 0)
                back = linalg.apply_gates(linalg.adjoint(bind(bsteps, slots)), z, n)
                v = _init_contraction(problem, back)[ok]
                h[ok] += branch.weight * (v[:, :, None] * v.conj()[:, None, :])
            moved = _norms(h) > 0
            if moved.any():
                free = free.copy()
                free[moved] = np.linalg.eigh(h[moved])[1][..., -1]
                init = _assemble(problem, free)
                traces = [list(run_steps(st, slots, init, n)) for st in steps]
        old, value = value, _traced_values(problem, traces)
        keep = []
        for r, start in enumerate(rows):
            history[start].append(value[r])
            if value[r] - old[r] < tol:
                value[r] = max(old[r], value[r])
                results[start] = result(r)
            else:
                keep.append(r)
        if len(keep) < len(rows):
            rows, value = [rows[r] for r in keep], [value[r] for r in keep]
            slots = {k: s[keep] for k, s in slots.items()}
            free = None if free is None else free[keep]
            traces = [[t[keep] for t in trace] for trace in traces]
        if not rows:
            break
    for r, start in enumerate(rows):
        results[start] = result(r)
    return max(results, key=lambda res: res.value)


def _init_contraction(problem: AscentProblem, t_dag_z: np.ndarray) -> np.ndarray:
    """Vector v with <z| T_b |phi(free)> = <v|free> for the free-init step,
    from t_dag_z = T_b^dagger |z>, for each start of a stack."""
    fixed = problem.fixed_init
    if fixed is None:
        return t_dag_z
    return fixed.conj() @ t_dag_z.reshape(t_dag_z.shape[:-1] + (len(fixed), -1))


# -- protocol adapters -------------------------------------------------------


def protocol_ascent_problem(
    protocol: InteractiveProtocol,
    ancilla_qubits: int = 0,
    frozen_slots: tuple[str, ...] = (),
) -> AscentProblem:
    """Single-branch problem: the protocol's step list (`steps`) and then
    the accept projector, from the protocol's fixed start.

    Slots named in frozen_slots are pinned to the identity (their step is
    dropped), which models a prover that stays idle in those rounds.
    """
    steps = [(op, wires) for op, wires in protocol.steps(ancilla_qubits)
             if not (isinstance(op, str) and op in frozen_slots)]
    steps.append((P1, (protocol.layout.qubits_of("W")[0],)))
    init = protocol.initial.amplitudes
    if ancilla_qubits:
        init = np.kron(init, linalg.basis_vector(0, 2 ** ancilla_qubits))
    return AscentProblem(
        n_qubits=protocol.layout.total_qubits + ancilla_qubits,
        branches=(Branch(1.0, tuple(steps)),),
        fixed_init=init,
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
    result = alternating_ascent(problem, rng, iters=iters, restarts=restarts, tol=tol,
                                warm_starts=[protocol.honest])
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
