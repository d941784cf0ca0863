"""Canonical quantum state commitments and the double-opening game.

A scheme is a unitary on the message wires plus ancilla wires, with a
declared split of the output wires into a commitment register C and a
decommitment register D. Verification uncomputes and projects the ancillas
onto zero. The double-opening game evaluates each classical history of the
experiment once per (scheme, adversary), with every challenger step and the
bit-dependent swap ordering; a trial only draws from those histories.
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
from qpzk.core.sampling import accept_bit
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

Gate = tuple[np.ndarray, tuple[int, ...]]


@dataclass(frozen=True)
class Adversary:
    """A double-opening adversary as data, built for one scheme.

    Gates act on absolute game wires (see DoubleOpenGame). `prepare` runs
    before the first opening, `respond` between the two openings; None
    there means the adversary walks away. The guess reads M' (1 unless it
    is all-zero) or is a uniform bit.
    """

    prepare: tuple[Gate, ...]
    respond: Optional[tuple[Gate, ...]]
    reads_swap_target: bool
    ancilla_qubits: int = 0


@dataclass
class GameRecord:
    win: bool
    aborted: bool
    challenger_bit: Optional[int]
    guess: Optional[int]


class DoubleOpenGame:
    """The double-opening experiment of one adversary against one scheme,
    evaluated once as a tree of classical histories: first check, b, second
    check, M' read. A trial (run_double_open) only draws from it.

    Wire map: commitment wires 0..k-1 in natural (message, ancilla) order,
    the challenger's swap target M' next, then the adversary's ancillas.
    Nodes of probability zero are never reached, so they are left unset.
    """

    def __init__(self, scheme: CanonicalCommitment, adversary: Adversary):
        self.scheme = scheme
        self.adversary = adversary
        k = scheme.total_wires
        m = scheme.message_qubits
        self.n = k + m + adversary.ancilla_qubits
        self.com_wires = list(range(k))
        mprime = list(range(k, k + m))
        own = list(range(k + m, self.n))
        prepare = _checked_gates(adversary.prepare, self.com_wires + own, "prepare")
        respond = None
        if adversary.respond is not None:
            respond = _checked_gates(adversary.respond, list(scheme.d_wires) + own, "respond")
        # Qubit order that exchanges the message wires with M'.
        self._swap_order = list(range(self.n))
        for w, wp in zip(range(m), mprime):
            self._swap_order[w], self._swap_order[wp] = wp, w

        vec = self._apply(prepare, linalg.basis_vector(0, 2 ** self.n))
        self.p_open, opened = self._open_check(vec)
        self.p_second: list[Optional[float]] = [None, None]
        self.mprime_marginal: list[Optional[np.ndarray]] = [None, None]
        if respond is None or opened is None:
            return
        for b in (0, 1):
            # b = 1 swaps M' in before the first recommit, b = 0 after the
            # second check.
            vec = self._recommit(opened, swap=b == 1)
            p, vec = self._open_check(self._apply(respond, vec))
            self.p_second[b] = p
            if vec is not None and adversary.reads_swap_target:
                vec = self._recommit(vec, swap=b == 0)
                self.mprime_marginal[b] = self._marginal(vec, mprime)

    def _apply(self, gates: list[Gate], vec: np.ndarray) -> np.ndarray:
        for mat, wires in gates:
            vec = linalg.apply_to_vector(mat, vec, wires, self.n)
        return vec

    def _open_check(self, vec: np.ndarray) -> tuple[float, Optional[np.ndarray]]:
        """Pass probability of the canonical opening check and the
        normalised state after passing (None when it cannot pass)."""
        vec = linalg.apply_to_vector(self.scheme.com_dagger, vec, self.com_wires, self.n)
        vec = linalg.apply_to_vector(self.scheme.ancilla_zero_projector, vec,
                                     self.com_wires, self.n)
        p = float(np.linalg.norm(vec) ** 2)
        return p, (vec / np.sqrt(p) if p > 0 else None)

    def _recommit(self, vec: np.ndarray, swap: bool) -> np.ndarray:
        if swap:
            vec = linalg.permute_vector(vec, self._swap_order, self.n)
        return linalg.apply_to_vector(self.scheme.com, vec, self.com_wires, self.n)

    def _marginal(self, vec: np.ndarray, targets: list[int]) -> np.ndarray:
        """Normalised computational-basis distribution of the target wires."""
        probs = np.abs(vec.reshape((2,) * self.n)) ** 2
        axes = [q for q in range(self.n) if q not in targets]
        marginal = probs.sum(axis=tuple(axes)) if axes else probs
        marginal = marginal.reshape(-1)
        return marginal / marginal.sum()


def _checked_gates(gates, held: list[int], phase: str) -> list[Gate]:
    """Adversary gates as complex matrices, each unitary and on held wires."""
    checked = []
    for mat, wires in gates:
        mat = np.asarray(mat, dtype=complex)
        if not set(wires) <= set(held):
            raise RegisterError(
                f"adversary {phase} gate acts on wires {list(wires)}; "
                f"it holds only wires {held} then")
        if not linalg.is_unitary(mat):
            raise StateValidationError("adversary operation must be unitary")
        checked.append((mat, tuple(wires)))
    return checked


def run_double_open(game: DoubleOpenGame, rng) -> GameRecord:
    """One double-opening experiment drawn from the game's tree; the
    adversary wins on b' = b."""
    if not accept_bit(game.p_open, rng):
        return GameRecord(False, True, None, None)
    b = int(rng.integers(2))
    if game.adversary.respond is None or not accept_bit(game.p_second[b], rng):
        return GameRecord(False, True, b, None)
    if game.adversary.reads_swap_target:
        marginal = game.mprime_marginal[b]
        # M' holds the original message when the swap came first (b = 1).
        guess = 1 if int(rng.choice(len(marginal), p=marginal)) != 0 else 0
    else:
        guess = int(rng.integers(2))
    return GameRecord(guess == b, False, b, guess)


def double_open_win_rate(scheme, adversary: Adversary, trials: int, rng) -> tuple[float, int]:
    """Win rate over completed-and-aborted trials (aborts never count as
    wins) plus the abort count."""
    game = DoubleOpenGame(scheme, adversary)
    wins = 0
    aborts = 0
    for _ in range(trials):
        rec = run_double_open(game, rng)
        wins += rec.win
        aborts += rec.aborted
    return wins / trials, aborts


# -- built-in adversaries ----------------------------------------------------


def _commit_gates(scheme: CanonicalCommitment, ones: bool) -> tuple[Gate, ...]:
    """Honest commitment to |0...0> or, with `ones`, to |1...1>."""
    flips = tuple((X, (w,)) for w in range(scheme.message_qubits)) if ones else ()
    return flips + ((scheme.com, tuple(range(scheme.total_wires))),)


def random_guess_adversary(scheme: CanonicalCommitment) -> Adversary:
    """Commits honestly, does nothing, guesses a uniform bit."""
    return Adversary(_commit_gates(scheme, ones=False), (), reads_swap_target=False)


def read_swap_target_adversary(scheme: CanonicalCommitment) -> Adversary:
    """Commits |1...1>, opens honestly, reads the swap target at the end.

    Against a scheme whose decommitment register is branch-independent the
    whole final view carries no trace of b and the win rate is exactly one
    half; against the broken identity scheme the same read wins only when
    combined with tampering (see tamper_and_read_adversary)."""
    return Adversary(_commit_gates(scheme, ones=True), (), reads_swap_target=True)


def tamper_and_read_adversary(scheme: CanonicalCommitment) -> Adversary:
    """Commits |1...1>, flips the decommitment register between openings and
    reads the swap target at the end. The identity scheme leaves M' =
    |1...1> exactly when b = 1 under this tampering, so the read breaks it
    outright."""
    flips = tuple((X, (w,)) for w in scheme.d_wires)
    return Adversary(_commit_gates(scheme, ones=True), flips, reads_swap_target=True)


def aborting_adversary(scheme: CanonicalCommitment) -> Adversary:
    """Walks away when asked for the second opening."""
    return Adversary(_commit_gates(scheme, ones=False), None, reads_swap_target=False)
