"""Quantum interactive protocols with alternating prover/verifier unitaries.

A protocol lives on registers R (prover workspace), W (verifier workspace)
and M (message). The prover moves first; after the final verifier unitary the
first qubit of W is measured and outcome 1 means accept.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from qpzk.core import linalg
from qpzk.core.operators import P1, UnitaryOp
from qpzk.core.registers import RegisterLayout
from qpzk.core.states import (
    MixedState,
    PureState,
    apply_unitary,
    partial_trace,
    tensor,
)
from qpzk.errors import ConfigError, DimensionMismatchError, StateValidationError
from qpzk.serialize import (
    complex_matrix_from_json,
    complex_matrix_to_json,
    complex_vector_from_json,
    complex_vector_to_json,
    read_json,
)

PROTOCOL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TranscriptPoint:
    """Verifier-visible reduced state right after the i-th message."""

    message_index: int
    view: MixedState


@dataclass(frozen=True)
class ProverStrategy:
    """Per-round prover unitaries, honest or adversarial.

    `unitaries` act on R, M and an optional fresh ancilla declared upfront;
    None means "use the protocol's honest unitaries".
    """

    tag: str = "honest"
    unitaries: Optional[tuple[np.ndarray, ...]] = None
    ancilla_qubits: int = 0
    name: str = ""

    def __post_init__(self):
        if self.tag not in ("honest", "adversarial"):
            raise StateValidationError(f"unknown strategy tag {self.tag!r}")
        if self.unitaries is not None:
            mats = tuple(np.asarray(u, dtype=complex) for u in self.unitaries)
            for u in mats:
                if not linalg.is_unitary(u):
                    raise StateValidationError("strategy unitary is not unitary")
            object.__setattr__(self, "unitaries", mats)

    def unitary_for(self, round_index: int) -> Optional[np.ndarray]:
        """Unitary for a round; None means honest."""
        if self.unitaries is None:
            return None
        return self.unitaries[round_index]


HONEST = ProverStrategy(tag="honest", name="honest")


class InteractiveProtocol:
    """An m-message protocol (m odd) given by an initial state, verifier
    unitaries on W M, honest prover unitaries on R M and the accept
    measurement on the first qubit of W."""

    def __init__(
        self,
        r_qubits: int,
        w_qubits: int,
        m_qubits: int,
        initial: PureState,
        verifier_unitaries: Sequence[np.ndarray],
        prover_unitaries: Sequence[np.ndarray],
    ):
        self.layout = RegisterLayout.of(("R", r_qubits), ("W", w_qubits), ("M", m_qubits))
        if initial.layout != self.layout:
            initial = initial.relabel(self.layout)
        self.initial = initial
        self.verifier_unitaries = tuple(np.asarray(v, dtype=complex) for v in verifier_unitaries)
        self.prover_unitaries = tuple(np.asarray(p, dtype=complex) for p in prover_unitaries)
        if len(self.verifier_unitaries) != len(self.prover_unitaries):
            raise StateValidationError("prover and verifier unitary counts differ")
        wm_dim = 2 ** (w_qubits + m_qubits)
        rm_dim = 2 ** (r_qubits + m_qubits)
        for v in self.verifier_unitaries:
            if v.shape != (wm_dim, wm_dim):
                raise DimensionMismatchError("verifier unitary must act on W M")
            if not linalg.is_unitary(v):
                raise StateValidationError("verifier unitary is not unitary")
        for p in self.prover_unitaries:
            if p.shape != (rm_dim, rm_dim):
                raise DimensionMismatchError("prover unitary must act on R M")
            if not linalg.is_unitary(p):
                raise StateValidationError("prover unitary is not unitary")

    @property
    def rounds(self) -> int:
        return len(self.verifier_unitaries)

    @property
    def messages(self) -> int:
        return 2 * self.rounds - 1

    @property
    def num_challenges(self) -> int:
        return 0

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

    def _prover_targets(self, strat: ProverStrategy) -> tuple[str, ...]:
        return ("R", "M") if strat.ancilla_qubits == 0 else ("R", "M", "Anc")

    def _prover_unitary(self, strat: ProverStrategy, i: int) -> np.ndarray:
        u = strat.unitary_for(i)
        if u is None:
            if strat.ancilla_qubits:
                u = np.kron(self.prover_unitaries[i],
                            np.eye(2 ** strat.ancilla_qubits, dtype=complex))
            else:
                u = self.prover_unitaries[i]
        return u

    def evolve(self, strat: ProverStrategy = HONEST, upto_message: Optional[int] = None) -> PureState:
        """State after the given message (default: after the final V_r)."""
        state = self._initial_state(strat)
        targets = self._prover_targets(strat)
        last = 2 * self.rounds if upto_message is None else upto_message
        for i in range(self.rounds):
            msg = 2 * i + 1
            if msg > last:
                return state
            state = apply_unitary(state, UnitaryOp(self._prover_unitary(strat, i), targets))
            msg = 2 * i + 2
            if msg > last:
                return state
            state = apply_unitary(state, UnitaryOp(self.verifier_unitaries[i], ("W", "M")))
        return state

    def acceptance(self, state: PureState) -> float:
        return accept_probability(state.amplitudes, state.layout)


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


def verifier_view(protocol: InteractiveProtocol, strat: ProverStrategy, i: int) -> TranscriptPoint:
    """Reduced W M state after the i-th message, prover side traced out."""
    if not 1 <= i <= protocol.messages:
        raise ConfigError(f"message index {i} outside 1..{protocol.messages}")
    state = protocol.evolve(strat, upto_message=i)
    drop = ["R"] + (["Anc"] if strat.ancilla_qubits else [])
    return TranscriptPoint(i, partial_trace(state, drop))


def sample_run(protocol, strat: ProverStrategy, coin_schedule, rng):
    """One seeded run: sampled accept bit plus the per-message transcript.

    Deterministic protocols ignore coins (the schedule must be empty);
    coin-bearing compiled protocols consume one coin per declared challenge,
    drawing them from rng when the schedule is None.
    """
    sampler = getattr(protocol, "sample_run", None)
    if sampler is not None:
        return sampler(strat, coin_schedule, rng)
    coins = tuple(coin_schedule or ())
    if len(coins) != protocol.num_challenges:
        raise ConfigError(
            f"coin schedule length {len(coins)} != declared challenges "
            f"{protocol.num_challenges}"
        )
    transcript = [verifier_view(protocol, strat, i) for i in range(1, protocol.messages + 1)]
    p = run_protocol(protocol, strat)
    outcome = 1 if rng.random() < p else 0
    return outcome, transcript


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
    try:
        regs = data["registers"]
        rounds = int(data["rounds"])
        init = complex_vector_from_json(data["initial_state"])
        vs = [complex_matrix_from_json(v) for v in data["verifier_unitaries"]]
        ps = [complex_matrix_from_json(p) for p in data["prover_unitaries"]]
    except KeyError as exc:
        raise ConfigError(f"protocol file missing field {exc}") from exc
    if len(vs) != rounds or len(ps) != rounds:
        raise ConfigError("unitary counts do not match declared round count")
    lay = RegisterLayout.of(("R", int(regs["R"])), ("W", int(regs["W"])), ("M", int(regs["M"])))
    return InteractiveProtocol(
        int(regs["R"]), int(regs["W"]), int(regs["M"]),
        PureState(init, lay), vs, ps,
    )


def save_protocol(protocol: InteractiveProtocol, path) -> None:
    with open(path, "w") as fh:
        json.dump(protocol_to_json(protocol), fh, indent=1)


def load_protocol(path) -> InteractiveProtocol:
    return protocol_from_json(read_json(path))
