"""Quantum interactive protocols with alternating prover/verifier unitaries.

A protocol lives on registers R (prover workspace), W (verifier workspace)
and M (message). The prover moves first; after the final verifier unitary the
first qubit of W is measured and outcome 1 means accept.

Each round is a gate list: a tuple of (matrix, local wires) gates on W M for
the verifier and on R M for the prover, applied in order. The dense round
matrices are built only on request.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from qpzk.core import linalg
from qpzk.core.operators import P1, checked_unitary
from qpzk.core.registers import RegisterLayout
from qpzk.core.sampling import accept_bit
from qpzk.core.states import MixedState, PureState, partial_trace, tensor
from qpzk.errors import (
    ConfigError,
    DimensionMismatchError,
    RegisterError,
    StateValidationError,
)
from qpzk.serialize import (
    complex_matrix_from_json,
    complex_matrix_to_json,
    complex_vector_from_json,
    complex_vector_to_json,
    read_field,
    read_int,
    read_json,
)

PROTOCOL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ProverStrategy:
    """Per-round prover unitaries, honest, adversarial or a round
    simulator's (whose private register takes the place of R).

    `unitaries` act on R, M and an optional fresh ancilla declared upfront;
    None means "use the protocol's honest unitaries".
    """

    unitaries: Optional[tuple[np.ndarray, ...]] = None
    ancilla_qubits: int = 0
    name: str = ""

    def __post_init__(self):
        if self.unitaries is not None:
            mats = tuple(np.asarray(u) for u in self.unitaries)
            object.__setattr__(self, "unitaries", tuple(
                checked_unitary(u, u.shape[0].bit_length() - 1 if u.ndim else 0,
                                "strategy unitary") for u in mats))

    def unitary_for(self, round_index: int) -> Optional[np.ndarray]:
        """Unitary for a round; None means honest."""
        if self.unitaries is None:
            return None
        return self.unitaries[round_index]


HONEST = ProverStrategy(name="honest")


class InteractiveProtocol:
    """An m-message protocol (m odd) given by an initial state, verifier
    rounds on W M, honest prover rounds on R M and the accept measurement on
    the first qubit of W.

    A round is a dense matrix on all of its wires or a list of (matrix,
    local wires) gates; a dense matrix is stored as one gate on all wires.
    Every gate is checked once, here, for its wires and for unitarity."""

    def __init__(
        self,
        r_qubits: int,
        w_qubits: int,
        m_qubits: int,
        initial: PureState,
        verifier_unitaries: Sequence,
        prover_unitaries: Sequence,
    ):
        self.layout = RegisterLayout.of(("R", r_qubits), ("W", w_qubits), ("M", m_qubits))
        if initial.layout != self.layout:
            initial = initial.relabel(self.layout)
        self.initial = initial
        if len(verifier_unitaries) != len(prover_unitaries):
            raise StateValidationError("prover and verifier unitary counts differ")
        self.verifier_rounds = tuple(
            _checked_round(v, w_qubits + m_qubits, "verifier", "W M")
            for v in verifier_unitaries)
        self.prover_rounds = tuple(
            _checked_round(p, r_qubits + m_qubits, "prover", "R M")
            for p in prover_unitaries)

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

    @classmethod
    def from_verifier_start(
        cls,
        psi_v: PureState,
        r_qubits: int,
        m_qubits: int,
        verifier_unitaries: Sequence[np.ndarray],
        prover_unitaries: Sequence[np.ndarray],
    ) -> "InteractiveProtocol":
        """Protocol whose initial state is psi_v on W and zeros on R and M."""
        w = psi_v.n_qubits
        lay = RegisterLayout.of(("R", r_qubits), ("W", w), ("M", m_qubits))
        zeros_r = PureState.computational(RegisterLayout.single("R", r_qubits))
        zeros_m = PureState.computational(RegisterLayout.single("M", m_qubits))
        init = tensor(tensor(zeros_r, psi_v.relabel(RegisterLayout.single("W", w))), zeros_m)
        return cls(r_qubits, w, m_qubits, init.relabel(lay),
                   verifier_unitaries, prover_unitaries)

    # -- execution ---------------------------------------------------------

    def _initial_state(self, strat: ProverStrategy) -> PureState:
        if strat.ancilla_qubits == 0:
            return self.initial
        anc = PureState.computational(RegisterLayout.single("Anc", strat.ancilla_qubits))
        return tensor(self.initial, anc)

    def _prover_gates(self, strat: ProverStrategy, i: int, wires) -> tuple:
        """Round i of the prover on the given (R, M[, Anc]) wires: the
        strategy's unitary on all of them, or the honest gates, which leave
        the ancilla untouched."""
        u = strat.unitary_for(i)
        if u is None:
            return linalg.placed(self.prover_rounds[i], wires)
        return ((u, tuple(wires)),)

    def evolve(self, strat: ProverStrategy = HONEST, upto_message: Optional[int] = None) -> PureState:
        """State after the given message (default: after the final V_r)."""
        if strat.unitaries is not None and len(strat.unitaries) != self.rounds:
            raise DimensionMismatchError(
                f"strategy {strat.name or 'custom'!r} has {len(strat.unitaries)} "
                f"rounds; the protocol has {self.rounds}")
        state = self._initial_state(strat)
        lay = state.layout
        n = lay.total_qubits
        names = ("R", "M") if strat.ancilla_qubits == 0 else ("R", "M", "Anc")
        prover = lay.qubits_of_all(names)
        wm = lay.qubits_of_all(["W", "M"])
        vec = state.amplitudes
        last = 2 * self.rounds if upto_message is None else upto_message
        for i in range(self.rounds):
            if 2 * i + 1 > last:
                break
            vec = linalg.apply_gates(self._prover_gates(strat, i, prover), vec, n)
            if 2 * i + 2 > last:
                break
            vec = linalg.apply_gates(linalg.placed(self.verifier_rounds[i], wm), vec, n)
        return PureState.computed(vec, lay)

    def acceptance(self, state: PureState) -> float:
        return accept_probability(state.amplitudes, state.layout)


def _checked_round(op, n: int, role: str, regs: str) -> tuple:
    """One round as a tuple of read-only (matrix, wires) gates on n local
    wires, each checked for its wires and for unitarity."""
    if _is_gate_list(op):
        gates = op
    else:
        gates = [(op, range(n))]
        if np.shape(op) != (2 ** n, 2 ** n):
            raise DimensionMismatchError(f"{role} unitary must act on {regs}")
    out = []
    for mat, wires in gates:
        wires = tuple(int(w) for w in wires)
        mat = checked_unitary(mat, len(wires), f"{role} unitary")
        linalg.target_plan(wires, n, mat.shape[0])
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


def run_protocol(protocol: InteractiveProtocol, strat: ProverStrategy = HONEST) -> float:
    """Exact acceptance probability by full state evolution."""
    final = protocol.evolve(strat)
    return protocol.acceptance(final)


def initial_workspace_state(protocol: InteractiveProtocol) -> np.ndarray:
    """The verifier's initial workspace vector, with its largest entry made
    real and positive; requires a product start."""
    lay = protocol.layout
    red = linalg.partial_trace_vector(protocol.initial.amplitudes,
                                      lay.qubits_of("W"), lay.total_qubits)
    vals, vecs = np.linalg.eigh(red)
    if vals[-1] < 1.0 - 1e-9:
        raise ConfigError("verifier workspace is entangled in the initial state")
    top = vecs[:, -1]
    return top * np.exp(-1j * np.angle(top[np.argmax(np.abs(top))]))


def verifier_view(protocol: InteractiveProtocol, strat: ProverStrategy, i: int) -> MixedState:
    """Reduced W M state after the i-th message, prover side traced out."""
    if not 1 <= i <= protocol.messages:
        raise ConfigError(f"message index {i} outside 1..{protocol.messages}")
    state = protocol.evolve(strat, upto_message=i)
    drop = ["R"] + (["Anc"] if strat.ancilla_qubits else [])
    return partial_trace(state, drop)


def sample_run(protocol, strat: ProverStrategy, coin_schedule, rng):
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
    try:
        lay = RegisterLayout.of(("R", r), ("W", w), ("M", m))
        return InteractiveProtocol(r, w, m, PureState(init, lay), vs, ps)
    except (RegisterError, StateValidationError, DimensionMismatchError) as exc:
        raise ConfigError(f"invalid protocol file: {exc}") from exc


def save_protocol(protocol: InteractiveProtocol, path) -> None:
    with open(path, "w") as fh:
        json.dump(protocol_to_json(protocol), fh, indent=1)


def load_protocol(path) -> InteractiveProtocol:
    return protocol_from_json(read_json(path))
