"""Quantum interactive protocols with alternating prover/verifier unitaries.

A protocol lives on registers R (prover workspace), W (verifier workspace)
and M (message). The prover moves first; after the final verifier unitary the
first qubit of W is measured and outcome 1 means accept.

Each round is a gate list: a tuple of (matrix, local wires) gates on W M for
the verifier and on R M for the prover, applied in order. The dense round
matrices are built only on request.
"""

from __future__ import annotations

import collections
import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from qpzk.core import linalg
from qpzk.core.operators import P1, checked_unitary
from qpzk.core.registers import RegisterLayout
from qpzk.core.sampling import accept_bit
from qpzk.core.states import MixedState, PureState, partial_trace
from qpzk.errors import ConfigError, DimensionMismatchError, StateValidationError
from qpzk.serialize import (
    complex_matrix_from_json,
    complex_matrix_to_json,
    complex_vector_from_json,
    complex_vector_to_json,
    load_json,
    read_field,
    read_int,
    write_json,
)

PROTOCOL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Strategy:
    """A prover: a unitary per slot name, and the free part of the start
    (None when the start is all fixed). A slot's unitary is a matrix on all
    of the slot's wires, or a gate list of (matrix, local wires) whose local
    wire k is the slot's k-th wire; each is checked here for unitarity, and
    the free part for unit norm."""

    slots: dict
    free: Optional[np.ndarray] = None
    name: str = "custom"

    def __post_init__(self):
        what = f"strategy {self.name!r}"
        object.__setattr__(self, "slots", {
            k: _checked_slot(v, f"{what} slot {k}") for k, v in self.slots.items()})
        if self.free is not None and not abs(np.linalg.norm(self.free) - 1.0) <= linalg.EPS:
            raise StateValidationError(
                f"{what}: the start's free part has norm {np.linalg.norm(self.free)}, "
                "not 1 within 1e-9")

    @classmethod
    def computed(cls, slots: dict, free=None, name: str = "custom") -> "Strategy":
        """A strategy the package computed from checked inputs (a gate list
        as a tuple), without the constructor's checks."""
        out = object.__new__(cls)
        for field, value in (("slots", slots), ("free", free), ("name", name)):
            object.__setattr__(out, field, value)
        return out


def bind(steps, slots: dict) -> tuple:
    """The steps as a plain gate list: each slot name replaced by its
    unitary in slots, a gate list's local wires placed on the slot's wires."""
    out = []
    for op, wires in steps:
        if isinstance(op, str):
            if op not in slots:
                raise ConfigError(f"strategy has no unitary for slot {op!r}")
            op = slots[op]
            if isinstance(op, tuple):
                out.extend(linalg.placed(op, wires))
                continue
        out.append((op, wires))
    return tuple(out)


def run_steps(steps, slots: dict, vec: np.ndarray, n: int):
    """The trace of a step list on n qubits, lazily: vec, then the state
    after each step. A slot is bound (`bind`) and counts as one step,
    however many gates its unitary has. This is the one evaluator of step
    lists."""
    yield vec
    for step in steps:
        vec = linalg.apply_gates(bind((step,), slots), vec, n)
        yield vec


def final_state(trace) -> np.ndarray:
    """The last state of a trace, without keeping the others."""
    return collections.deque(trace, maxlen=1)[0]


def prover_ancilla(strategy: Strategy, names, wires: int) -> int:
    """The ancilla of a run from a fixed start whose slots `names` each
    act on `wires` prover wires, then the ancilla: what the widest slot
    takes past them. Each matrix must act on all of a slot's wires."""
    what = f"strategy {strategy.name!r}"
    if set(strategy.slots) != set(names):
        raise ConfigError(f"{what} has slots {sorted(strategy.slots)}; "
                          f"the run takes {list(names)}")
    if strategy.free is not None:
        raise DimensionMismatchError(f"{what}: the run's start is fixed; it takes no free part")
    # A gate list reaches up to its highest local wire, a matrix all its qubits.
    widths = {k: max((w + 1 for _, ws in v for w in ws), default=0) if isinstance(v, tuple)
              else v.shape[0].bit_length() - 1 for k, v in strategy.slots.items()}
    anc = max(max(widths.values(), default=0) - wires, 0)
    for k, v in strategy.slots.items():
        if not isinstance(v, tuple) and widths[k] != wires + anc:
            raise DimensionMismatchError(
                f"{what}: slot {k} acts on {widths[k]} qubits; the prover's wires "
                f"are {wires}, and {anc} more of ancilla")
    return anc


class InteractiveProtocol:
    """An m-message protocol (m odd) given by the verifier's start psi_v on
    W, verifier rounds on W M, honest prover rounds on R M and the accept
    measurement on the first qubit of W; R and M start in zeros.

    A round is a dense matrix on all of its wires or a list of (matrix,
    local wires) gates; a dense matrix is stored as one gate on all wires.
    Every gate is checked once, here, for its wires and for unitarity."""

    def __init__(
        self,
        psi_v: PureState,
        r_qubits: int,
        m_qubits: int,
        verifier_unitaries: Sequence,
        prover_unitaries: Sequence,
    ):
        w_qubits = psi_v.n_qubits
        self.layout = RegisterLayout.of(("R", r_qubits), ("W", w_qubits), ("M", m_qubits))
        # The start, read-only: psi_v on W, and on (R, W, M) with R and M in zeros.
        self.psi_v = psi_v.amplitudes
        self.initial = PureState.computed(
            np.kron(np.kron(linalg.basis_vector(0, 2 ** r_qubits), self.psi_v),
                    linalg.basis_vector(0, 2 ** m_qubits)), self.layout)
        if len(verifier_unitaries) != len(prover_unitaries):
            raise StateValidationError("prover and verifier unitary counts differ")
        self.verifier_rounds = tuple(
            _checked_round(v, w_qubits + m_qubits, "verifier", "W M")
            for v in verifier_unitaries)
        self.prover_rounds = tuple(
            _checked_round(p, r_qubits + m_qubits, "prover", "R M")
            for p in prover_unitaries)
        # The step list, by message: slot P_i on (R, M), V_i's gates on (W, M).
        rm = tuple(self.layout.qubits_of_all(["R", "M"]))
        wm = self.layout.qubits_of_all(["W", "M"])
        self._messages = tuple(itertools.chain.from_iterable(
            (((f"P{i + 1}", rm),), linalg.placed(g, wm))
            for i, g in enumerate(self.verifier_rounds)))

    @functools.cached_property
    def honest(self) -> Strategy:
        """The honest prover: slot P_i is round i's checked gate list."""
        return Strategy.computed({f"P{i + 1}": g for i, g in enumerate(self.prover_rounds)},
                                 name="honest")

    @functools.cached_property
    def verifier_unitaries(self) -> tuple[np.ndarray, ...]:
        """Dense, read-only V_i on W M, built on first use."""
        return tuple(_dense(g, self.w_qubits + self.m_qubits) for g in self.verifier_rounds)

    @functools.cached_property
    def prover_unitaries(self) -> tuple[np.ndarray, ...]:
        """Dense, read-only honest P_i on R M, built on first use."""
        return tuple(_dense(g, self.r_qubits + self.m_qubits) for g in self.prover_rounds)

    @property
    def rounds(self) -> int:
        return len(self.verifier_rounds)

    @property
    def messages(self) -> int:
        return 2 * self.rounds - 1

    @property
    def r_qubits(self) -> int:
        return self.layout.size_of("R")

    @property
    def w_qubits(self) -> int:
        return self.layout.size_of("W")

    @property
    def m_qubits(self) -> int:
        return self.layout.size_of("M")

    # -- execution ---------------------------------------------------------

    def steps(self, ancilla_qubits: int = 0, upto_message: Optional[int] = None) -> tuple:
        """The step list through the given message (default: V_r, message
        2r) on (R, W, M), then an ancilla that each slot's wires end with."""
        last = 2 * self.rounds if upto_message is None else upto_message
        if not 0 <= last <= 2 * self.rounds:
            raise ConfigError(f"upto_message {last} outside 0..{2 * self.rounds}")
        n = self.layout.total_qubits
        anc = tuple(range(n, n + ancilla_qubits))
        return tuple((op, wires + anc) if isinstance(op, str) else (op, wires)
                     for op, wires in itertools.chain.from_iterable(self._messages[:last]))

    def evolve(self, strategy: Optional[Strategy] = None,
               upto_message: Optional[int] = None) -> PureState:
        """State after the given message (default: V_r) with the given prover
        (default: the honest one); its ancilla starts in zeros after (R, W, M)."""
        strategy = self.honest if strategy is None else strategy
        anc = prover_ancilla(strategy, self.honest.slots, self.r_qubits + self.m_qubits)
        lay, vec = self.layout, self.initial.amplitudes
        if anc:
            lay = lay.concat(RegisterLayout.single("Anc", anc))
            vec = np.kron(vec, linalg.basis_vector(0, 2 ** anc))
        vec = final_state(run_steps(self.steps(anc, upto_message), strategy.slots, vec,
                                    lay.total_qubits))
        return PureState.computed(vec, lay)

    def acceptance(self, state: PureState) -> float:
        return accept_probability(state.amplitudes, state.layout)


def _checked_round(op, n: int, role: str, regs: str) -> tuple:
    """One round as a tuple of read-only (matrix, wires) gates on n local
    wires, each checked for its wires and for unitarity."""
    if not _is_gate_list(op):
        if np.shape(op) != (2 ** n, 2 ** n):
            raise DimensionMismatchError(f"{role} unitary must act on {regs}")
        op = [(op, range(n))]
    return _checked_gates(op, n, f"{role} unitary")


def _checked_slot(op, what: str):
    """A slot's unitary checked: a gate list as a tuple of gates, a matrix
    as a read-only unitary on the qubits its size gives."""
    if _is_gate_list(op):
        return _checked_gates(op, None, what)
    mat = np.asarray(op)
    return checked_unitary(mat, mat.shape[0].bit_length() - 1 if mat.ndim else 0, what)


def _checked_gates(gates, n: Optional[int], what: str) -> tuple:
    """The gates as a tuple of read-only (matrix, wires) pairs, each checked
    for unitarity and for distinct wires in 0..n-1 (any distinct
    non-negative wires when n is None)."""
    out = []
    for mat, wires in gates:
        wires = tuple(int(w) for w in wires)
        mat = checked_unitary(mat, len(wires), what)
        linalg.target_plan(wires, max(wires, default=0) + 1 if n is None else n, mat.shape[0])
        out.append((mat, wires))
    return tuple(out)


def _is_gate_list(op) -> bool:
    return isinstance(op, (list, tuple)) and all(
        isinstance(g, tuple) and len(g) == 2 and np.ndim(g[0]) == 2 for g in op)


def _dense(gates: tuple, n: int) -> np.ndarray:
    """Dense read-only matrix of a checked round; a single gate on all n
    wires in order is its own matrix."""
    if len(gates) == 1 and gates[0][1] == tuple(range(n)):
        return gates[0][0]
    out = linalg.gate_product(gates, n)
    out.setflags(write=False)
    return out


def accept_probability(vec: np.ndarray, layout: RegisterLayout) -> float:
    """Squared norm of vec after |1><1| on the first W qubit of layout."""
    out = linalg.apply_to_vector(P1, vec, [layout.qubits_of("W")[0]],
                                 layout.total_qubits)
    return float(np.linalg.norm(out) ** 2)


def run_protocol(protocol: InteractiveProtocol, strat: Optional[Strategy] = None) -> float:
    """Exact acceptance probability by full state evolution (default: of
    the honest prover)."""
    final = protocol.evolve(strat)
    return protocol.acceptance(final)


def verifier_view(protocol: InteractiveProtocol, strat: Optional[Strategy], i: int) -> MixedState:
    """Reduced W M state after the i-th message, prover side traced out."""
    if not 1 <= i <= protocol.messages:
        raise ConfigError(f"message index {i} outside 1..{protocol.messages}")
    state = protocol.evolve(strat, upto_message=i)
    return partial_trace(state, [r for r in state.layout.names if r not in ("W", "M")])


def sample_run(protocol, strat: Optional[Strategy], coin_schedule, rng):
    """One seeded run: sampled accept bit plus the transcript, the verifier's
    (W, M) view after each message.

    Deterministic protocols take no coins (the schedule must be empty); a
    protocol with its own `sample_run` (the public-coin one) handles its coin.
    """
    sampler = getattr(protocol, "sample_run", None)
    if sampler is not None:
        return sampler(strat, coin_schedule, rng)
    if not isinstance(protocol, InteractiveProtocol):
        raise ConfigError(
            f"sample_run cannot run a {type(protocol).__name__}; "
            "run a CoinFlipProtocol with CoinFlipProtocol.run")
    if tuple(coin_schedule or ()):
        raise ConfigError("a deterministic protocol takes no coins; the schedule must be empty")
    transcript = [verifier_view(protocol, strat, i) for i in range(1, protocol.messages + 1)]
    return accept_bit(run_protocol(protocol, strat), rng), transcript


# -- persistence -----------------------------------------------------------


def protocol_to_json(protocol: InteractiveProtocol) -> dict:
    return {
        "schema_version": PROTOCOL_SCHEMA_VERSION,
        "registers": {
            "R": protocol.r_qubits,
            "W": protocol.w_qubits,
            "M": protocol.m_qubits,
        },
        "rounds": protocol.rounds,
        "initial_state": complex_vector_to_json(protocol.initial.amplitudes),
        "verifier_unitaries": [complex_matrix_to_json(v) for v in protocol.verifier_unitaries],
        "prover_unitaries": [complex_matrix_to_json(p) for p in protocol.prover_unitaries],
    }


def protocol_from_json(data: dict) -> InteractiveProtocol:
    r, w, m = read_field(data, "registers",
                         lambda regs: [read_field(regs, name, read_int) for name in "RWM"])
    rounds = read_field(data, "rounds", read_int)
    init = read_field(data, "initial_state", complex_vector_from_json)
    vs, ps = (read_field(data, name, lambda mats: [complex_matrix_from_json(u) for u in mats])
              for name in ("verifier_unitaries", "prover_unitaries"))
    if len(vs) != rounds or len(ps) != rounds:
        raise ConfigError("unitary counts do not match declared round count")
    # The file's start is on (R, W, M); a protocol's R and M start in zeros,
    # so all of its weight must lie on their all-zero block, psi_v on W.
    init = PureState(init, RegisterLayout.of(("R", r), ("W", w), ("M", m))).amplitudes
    psi_v = init.reshape(2 ** r, 2 ** w, 2 ** m)[0, :, 0]
    if np.linalg.norm(psi_v) ** 2 < 1.0 - 1e-9:
        raise ConfigError("initial_state: R and M must start in zeros")
    return InteractiveProtocol(PureState(psi_v, RegisterLayout.single("W", w)), r, m, vs, ps)


def save_protocol(protocol: InteractiveProtocol, path) -> None:
    write_json(protocol_to_json(protocol), path)


def load_protocol(path) -> InteractiveProtocol:
    return load_json(path, protocol_from_json, "protocol")
