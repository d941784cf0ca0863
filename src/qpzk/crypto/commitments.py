"""Canonical quantum state commitments and the double-opening game.

A scheme is a unitary on the message wires plus ancilla wires, with a
declared split of the output wires into a commitment register C and a
decommitment register D. Verification uncomputes and projects the ancillas
onto zero. The game harness executes every challenger step of the
double-opening experiment, including the bit-dependent swap ordering.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from qpzk.core import linalg
from qpzk.core.linalg import EPS
from qpzk.core.operators import CNOT, H, X, projector_onto
from qpzk.core.registers import RegisterLayout
from qpzk.core.states import MixedState, PureState, QuantumState
from qpzk.errors import (
    ConfigError,
    DimensionMismatchError,
    RegisterError,
    StateValidationError,
)
from qpzk.serialize import complex_matrix_from_json, complex_matrix_to_json, read_json


@dataclass(frozen=True)
class CanonicalCommitment:
    """Commitment unitary on message (n) + ancilla (lambda_c) wires.

    c_wires and d_wires partition the n + lambda_c output wires; the
    role_swapped flag marks the dual scheme with C and D exchanged.
    """

    name: str
    message_qubits: int
    ancilla_qubits: int
    com: np.ndarray
    c_wires: tuple[int, ...]
    d_wires: tuple[int, ...]
    role_swapped: bool = False

    def __post_init__(self):
        if self.message_qubits < 0 or self.ancilla_qubits < 0:
            raise RegisterError("commitment wire counts must be non-negative")
        total = self.message_qubits + self.ancilla_qubits
        mat = np.asarray(self.com, dtype=complex)
        object.__setattr__(self, "com", mat)
        object.__setattr__(self, "c_wires", tuple(self.c_wires))
        object.__setattr__(self, "d_wires", tuple(self.d_wires))
        if mat.shape != (2 ** total, 2 ** total):
            raise DimensionMismatchError("commitment unitary has wrong dimension")
        if not linalg.is_unitary(mat):
            raise StateValidationError("commitment map is not unitary")
        if sorted(self.c_wires + self.d_wires) != list(range(total)):
            raise RegisterError("C and D wires must partition the commitment wires")
        # com_dagger and ancilla_zero_projector are cached from com.
        mat.setflags(write=False)

    @property
    def total_wires(self) -> int:
        return self.message_qubits + self.ancilla_qubits

    def swapped(self) -> "CanonicalCommitment":
        """The dual scheme: exchange the roles of C and D."""
        return CanonicalCommitment(
            self.name + "-swapped", self.message_qubits, self.ancilla_qubits,
            self.com, self.d_wires, self.c_wires, not self.role_swapped,
        )

    @functools.cached_property
    def com_dagger(self) -> np.ndarray:
        """com^dagger, the inverse of com; read-only."""
        return _read_only(self.com.conj().T)

    @functools.cached_property
    def ancilla_zero_projector(self) -> np.ndarray:
        """Projector onto ancilla wires all-zero, identity on the message;
        read-only."""
        if self.ancilla_qubits == 0:
            return _read_only(np.eye(2 ** self.message_qubits, dtype=complex))
        zeros = projector_onto(linalg.basis_vector(0, 2 ** self.ancilla_qubits))
        return _read_only(np.kron(np.eye(2 ** self.message_qubits, dtype=complex), zeros))


def _read_only(mat: np.ndarray) -> np.ndarray:
    mat.setflags(write=False)
    return mat


def commit(scheme: CanonicalCommitment, message: QuantumState) -> QuantumState:
    """Commitment state on C then D wires."""
    if message.n_qubits != scheme.message_qubits:
        raise DimensionMismatchError(
            f"scheme commits {scheme.message_qubits} qubits, got {message.n_qubits}"
        )
    total = scheme.total_wires
    order = list(scheme.c_wires) + list(scheme.d_wires)
    lay_pairs = [(n_, c) for n_, c in (("C", len(scheme.c_wires)), ("D", len(scheme.d_wires))) if c > 0]
    layout = RegisterLayout.of(*lay_pairs)
    if isinstance(message, PureState):
        vec = message.amplitudes
        if scheme.ancilla_qubits:
            vec = np.kron(vec, linalg.basis_vector(0, 2 ** scheme.ancilla_qubits))
        vec = scheme.com @ vec
        vec = linalg.permute_vector(vec, order, total)
        return PureState(vec, layout)
    mat = message.density()
    if scheme.ancilla_qubits:
        anc = projector_onto(linalg.basis_vector(0, 2 ** scheme.ancilla_qubits))
        mat = np.kron(mat, anc)
    mat = scheme.com @ mat @ scheme.com_dagger
    mat = linalg.permute_matrix(mat, order, total)
    return MixedState(mat, layout)


def verify_open(scheme: CanonicalCommitment, state_cd: QuantumState):
    """Canonical verification: uncompute, project ancillas to zero.

    Returns (accept_probability, recovered_message_or_None); the recovered
    state is the reduced message register after a successful check.
    """
    total = scheme.total_wires
    if state_cd.n_qubits != total:
        raise DimensionMismatchError("commitment state has wrong wire count")
    # Undo the (C, D) wire ordering back to (message, ancilla).
    order = list(scheme.c_wires) + list(scheme.d_wires)
    inverse = list(np.argsort(order))
    mat = state_cd.density()
    mat = linalg.permute_matrix(mat, inverse, total)
    mat = scheme.com_dagger @ mat @ scheme.com
    proj = scheme.ancilla_zero_projector
    accepted = proj @ mat @ proj
    p = float(accepted.trace().real)
    if p <= EPS:
        return p, None
    lay_pairs = [("Msg", scheme.message_qubits)]
    if scheme.ancilla_qubits:
        lay_pairs.append(("Anc", scheme.ancilla_qubits))
    lay = RegisterLayout.of(*lay_pairs)
    post = MixedState(accepted / p, lay)
    if scheme.ancilla_qubits:
        from qpzk.core.states import partial_trace

        return p, partial_trace(post, "Anc")
    return p, post


# -- built-in schemes --------------------------------------------------------


def identity_scheme(message_qubits: int = 1) -> CanonicalCommitment:
    """Deliberately broken: no ancillas, the decommitment register is the
    message itself."""
    dim = 2 ** message_qubits
    return CanonicalCommitment(
        "identity", message_qubits, 0, np.eye(dim, dtype=complex),
        c_wires=(), d_wires=tuple(range(message_qubits)),
    )


def bell_ancilla_scheme(message_qubits: int = 1) -> CanonicalCommitment:
    """Two ancillas prepared as a Bell pair; D holds one half of the pair.

    The decommitment register is maximally mixed and independent of both the
    message and the challenger's branch, so double-opening adversaries win
    with probability exactly one half.
    """
    n = message_qubits
    bell_prep = CNOT @ np.kron(H, np.eye(2, dtype=complex))
    com = np.kron(np.eye(2 ** n, dtype=complex), bell_prep)
    return CanonicalCommitment(
        "bell-ancilla", n, 2, com,
        c_wires=tuple(range(n)) + (n,), d_wires=(n + 1,),
    )


def layered_cnot_scheme() -> CanonicalCommitment:
    """Two message qubits, one ancilla, commitment by two CNOT layers:
    message wire 0 controls the ancilla, then wire 1 controls wire 0."""
    # Wires (m0, m1, a): CNOT m0 -> a, then CNOT m1 -> m0.
    cnot_m0_a = linalg.embed(CNOT, [0, 2], 3)
    cnot_m1_m0 = linalg.embed(CNOT, [1, 0], 3)
    com = cnot_m1_m0 @ cnot_m0_a
    return CanonicalCommitment(
        "layered-cnot", 2, 1, com, c_wires=(0, 2), d_wires=(1,),
    )


def scheme_to_json(scheme: CanonicalCommitment) -> dict:
    return {
        "name": scheme.name,
        "message_qubits": scheme.message_qubits,
        "ancilla_qubits": scheme.ancilla_qubits,
        "com": complex_matrix_to_json(scheme.com),
        "c_wires": list(scheme.c_wires),
        "d_wires": list(scheme.d_wires),
        "role_swapped": scheme.role_swapped,
    }


def scheme_from_json(data: dict) -> CanonicalCommitment:
    try:
        return CanonicalCommitment(
            str(data["name"]), int(data["message_qubits"]), int(data["ancilla_qubits"]),
            complex_matrix_from_json(data["com"]),
            tuple(data["c_wires"]), tuple(data["d_wires"]),
            bool(data.get("role_swapped", False)),
        )
    except KeyError as exc:
        raise ConfigError(f"commitment scheme file missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed commitment scheme file: {exc}") from exc
    except (RegisterError, StateValidationError, DimensionMismatchError) as exc:
        raise ConfigError(f"invalid commitment scheme file: {exc}") from exc


BUILTIN_SCHEMES = {
    "identity": identity_scheme,
    "bell-ancilla": bell_ancilla_scheme,
    "layered-cnot": layered_cnot_scheme,
}


def load_scheme(name_or_path: str) -> CanonicalCommitment:
    if name_or_path in BUILTIN_SCHEMES:
        return BUILTIN_SCHEMES[name_or_path]()
    return scheme_from_json(read_json(name_or_path))


# -- double-opening game -----------------------------------------------------


class AdversaryAborted(Exception):
    """Raised by an adversary that walks away from the game."""


class GameView:
    """Restricted handle on the game state: an adversary may only touch the
    wires it currently holds."""

    def __init__(self, game: "DoubleOpenGame", qubits: list[int]):
        self._game = game
        self.qubits = list(qubits)

    def apply(self, mat: np.ndarray, local: Optional[list[int]] = None):
        targets = self.qubits if local is None else [self.qubits[i] for i in local]
        if not linalg.is_unitary(np.asarray(mat, dtype=complex)):
            raise StateValidationError("adversary operation must be unitary")
        self._game.apply(mat, targets)

    def measure_computational(self, local: list[int], rng) -> int:
        targets = [self.qubits[i] for i in local]
        return self._game.measure_computational(targets, rng)


@dataclass
class GameRecord:
    win: bool
    aborted: bool
    challenger_bit: Optional[int]
    guess: Optional[int]


class DoubleOpenGame:
    """Challenger for the double-opening experiment.

    Wire map: commitment wires 0..k-1 in natural (message, ancilla) order,
    the challenger's swap target M' next, then the adversary's private
    ancilla wires.
    """

    def __init__(self, scheme: CanonicalCommitment, adv_qubits: int = 0):
        self.scheme = scheme
        self.adv_qubits = adv_qubits
        k = scheme.total_wires
        self.com_wires = list(range(k))
        self.mprime_wires = list(range(k, k + scheme.message_qubits))
        self.adv_wires = list(range(k + scheme.message_qubits,
                                    k + scheme.message_qubits + adv_qubits))
        self.n = k + scheme.message_qubits + adv_qubits
        self.vector = linalg.basis_vector(0, 2 ** self.n)
        # Qubit order that exchanges the message wires with M'.
        self._swap_order = list(range(self.n))
        for m, mp in zip(range(scheme.message_qubits), self.mprime_wires):
            self._swap_order[m], self._swap_order[mp] = mp, m

    # Low-level state manipulation (pure-state simulation with sampled
    # measurement branches keeps 10^4-trial games cheap).
    def apply(self, mat: np.ndarray, targets: list[int]):
        self.vector = linalg.apply_to_vector(np.asarray(mat, dtype=complex),
                                             self.vector, targets, self.n)

    def measure_computational(self, targets: list[int], rng) -> int:
        probs = np.abs(self.vector.reshape((2,) * self.n)) ** 2
        axes = [q for q in range(self.n) if q not in targets]
        marginal = probs.sum(axis=tuple(axes)) if axes else probs
        marginal = marginal.reshape(-1)
        marginal = marginal / marginal.sum()
        outcome = int(rng.choice(len(marginal), p=marginal))
        proj = projector_onto(linalg.basis_vector(outcome, 2 ** len(targets)))
        vec = linalg.apply_to_vector(proj, self.vector, targets, self.n)
        self.vector = vec / np.linalg.norm(vec)
        return outcome

    def project_or_abort(self, proj: np.ndarray, targets: list[int], rng) -> bool:
        """Sample a two-outcome check; True means the check passed."""
        vec = linalg.apply_to_vector(proj, self.vector, targets, self.n)
        p = float(np.linalg.norm(vec) ** 2)
        if rng.random() < p:
            self.vector = vec / np.sqrt(p)
            return True
        rej = self.vector - vec
        norm = np.linalg.norm(rej)
        if norm > 0:
            self.vector = rej / norm
        return False

    def _open_check(self, rng) -> bool:
        self.apply(self.scheme.com_dagger, self.com_wires)
        return self.project_or_abort(self.scheme.ancilla_zero_projector,
                                     self.com_wires, rng)

    def _message_swap(self):
        self.vector = linalg.permute_vector(self.vector, self._swap_order, self.n)

    def _recommit(self):
        self.apply(self.scheme.com, self.com_wires)

    def run(self, adversary, rng) -> GameRecord:
        scheme = self.scheme
        d_abs = list(scheme.d_wires)
        try:
            adversary.prepare(scheme, GameView(self, self.com_wires + self.adv_wires), rng)
            # First opening check.
            if not self._open_check(rng):
                return GameRecord(False, True, None, None)
            b = int(rng.integers(2))
            if b == 0:
                self._recommit()
            else:
                self._message_swap()
                self._recommit()
            adversary.respond(GameView(self, d_abs + self.adv_wires), rng)
            if not self._open_check(rng):
                return GameRecord(False, True, b, None)
            if b == 0:
                self._message_swap()
                self._recommit()
            else:
                self._recommit()
            everything = self.com_wires + self.mprime_wires + self.adv_wires
            guess = int(adversary.guess(GameView(self, everything), rng))
        except AdversaryAborted:
            return GameRecord(False, True, None, None)
        return GameRecord(guess == b, False, b, guess)


def run_double_open(scheme: CanonicalCommitment, adversary, rng) -> GameRecord:
    """One full double-opening experiment; the adversary wins on b' = b."""
    game = DoubleOpenGame(scheme, getattr(adversary, "ancilla_qubits", 0))
    return game.run(adversary, rng)


def double_open_win_rate(scheme, adversary, trials: int, rng) -> tuple[float, int]:
    """Win rate over completed-and-aborted trials (aborts never count as
    wins) plus the abort count."""
    wins = 0
    aborts = 0
    for _ in range(trials):
        rec = run_double_open(scheme, adversary, rng)
        wins += rec.win
        aborts += rec.aborted
    return wins / trials, aborts


# -- built-in adversaries ----------------------------------------------------


class RandomGuessAdversary:
    """Commits honestly, does nothing, guesses a uniform bit."""

    ancilla_qubits = 0

    def prepare(self, scheme, view, rng):
        view.apply(scheme.com, list(range(scheme.total_wires)))

    def respond(self, view, rng):
        pass

    def guess(self, view, rng) -> int:
        return int(rng.integers(2))


class TamperAndReadAdversary:
    """Commits |1...1>, flips the decommitment register between openings and
    reads the challenger's swap target at the end. Breaks the identity
    scheme outright."""

    ancilla_qubits = 0

    def prepare(self, scheme, view, rng):
        self._scheme = scheme
        for wire in range(scheme.message_qubits):
            view.apply(X, [wire])
        view.apply(scheme.com, list(range(scheme.total_wires)))

    def respond(self, view, rng):
        for i in range(len(self._scheme.d_wires)):
            view.apply(X, [i])

    def guess(self, view, rng) -> int:
        scheme = self._scheme
        k = scheme.total_wires
        mprime_local = list(range(k, k + scheme.message_qubits))
        outcome = view.measure_computational(mprime_local, rng)
        # M' holds the original message when the swap came first (b = 1).
        return 1 if outcome != 0 else 0

    # The identity scheme leaves M' = |1...1> exactly when b = 1 under this
    # tampering, so the read is a perfect distinguisher there.


class ReadSwapTargetAdversary:
    """Commits |1...1>, opens honestly, measures the swap target at the end.

    Against a scheme whose decommitment register is branch-independent the
    whole final view carries no trace of b and the win rate is exactly one
    half; against the broken identity scheme the same read wins only when
    combined with tampering (see TamperAndReadAdversary)."""

    ancilla_qubits = 0

    def prepare(self, scheme, view, rng):
        self._scheme = scheme
        for wire in range(scheme.message_qubits):
            view.apply(X, [wire])
        view.apply(scheme.com, list(range(scheme.total_wires)))

    def respond(self, view, rng):
        pass

    def guess(self, view, rng) -> int:
        scheme = self._scheme
        k = scheme.total_wires
        mprime_local = list(range(k, k + scheme.message_qubits))
        outcome = view.measure_computational(mprime_local, rng)
        return 1 if outcome != 0 else 0


class AbortingAdversary:
    """Walks away when asked for the second opening."""

    ancilla_qubits = 0

    def prepare(self, scheme, view, rng):
        view.apply(scheme.com, list(range(scheme.total_wires)))

    def respond(self, view, rng):
        raise AdversaryAborted()

    def guess(self, view, rng) -> int:  # pragma: no cover - never reached
        return 0
