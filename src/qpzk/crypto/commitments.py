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
from qpzk.core.operators import CNOT, H, X, checked_unitary, projector_onto
from qpzk.core.registers import RegisterLayout
from qpzk.errors import (
    ConfigError,
    DimensionMismatchError,
    RegisterError,
    StateValidationError,
)
from qpzk.serialize import (complex_matrix_from_json, complex_matrix_to_json, read_field,
                            read_int, read_json, read_str)


@dataclass(frozen=True)
class CanonicalCommitment:
    """Commitment unitary on message (n) + ancilla (lambda_c) wires.

    c_wires and d_wires partition the n + lambda_c output wires. The
    verifier's two actions, commit_on and open_on, act on those wires placed
    anywhere in a larger register.
    """

    name: str
    message_qubits: int
    ancilla_qubits: int
    com: np.ndarray
    c_wires: tuple[int, ...]
    d_wires: tuple[int, ...]

    def __post_init__(self):
        if self.message_qubits < 0 or self.ancilla_qubits < 0:
            raise RegisterError("commitment wire counts must be non-negative")
        total = self.message_qubits + self.ancilla_qubits
        if total < 1:
            raise RegisterError("a commitment needs at least one wire")
        # com_dagger is cached from com.
        object.__setattr__(self, "com", checked_unitary(self.com, total, "commitment map"))
        object.__setattr__(self, "c_wires", tuple(self.c_wires))
        object.__setattr__(self, "d_wires", tuple(self.d_wires))
        if sorted(self.c_wires + self.d_wires) != list(range(total)):
            raise RegisterError("C and D wires must partition the commitment wires")

    @property
    def total_wires(self) -> int:
        return self.message_qubits + self.ancilla_qubits

    @functools.cached_property
    def com_dagger(self) -> np.ndarray:
        """com^dagger, the inverse of com; read-only."""
        return _read_only(self.com.conj().T)

    def commit_on(self, vec: np.ndarray, wires, n: int) -> np.ndarray:
        """com on `wires` of an n-qubit vector or (2^n, k) column block. The
        wires are the message wires, then the ancilla wires."""
        return linalg.apply_to_vector(self.com, vec, wires, n)

    def open_on(self, vec: np.ndarray, wires, n: int) -> np.ndarray:
        """The canonical opening check on `wires`, ordered as in commit_on:
        com^dagger, then the ancilla wires projected onto all-zero. The
        squared norm of the result is the pass probability."""
        vec = linalg.apply_to_vector(self.com_dagger, vec, wires, n)
        if not self.ancilla_qubits:
            return vec
        zeros = projector_onto(linalg.basis_vector(0, 2 ** self.ancilla_qubits))
        return linalg.apply_to_vector(zeros, vec, wires[self.message_qubits:], n)


def _read_only(mat: np.ndarray) -> np.ndarray:
    mat.setflags(write=False)
    return mat


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
    com = linalg.gate_product([(CNOT, [0, 2]), (CNOT, [1, 0])], 3)
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
    }


def scheme_from_json(data: dict) -> CanonicalCommitment:
    name = read_field(data, "name", read_str)
    message, ancilla = (read_field(data, field, read_int)
                        for field in ("message_qubits", "ancilla_qubits"))
    com = read_field(data, "com", complex_matrix_from_json)
    c_wires, d_wires = (read_field(data, field, lambda wires: tuple(map(read_int, wires)))
                        for field in ("c_wires", "d_wires"))
    try:
        return CanonicalCommitment(name, message, ancilla, com, c_wires, d_wires)
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


class DoubleOpenGame:
    """The double-opening experiment of one adversary against one scheme,
    evaluated once as a tree of classical histories: first check, b, second
    check, M' read. The trials (run_double_open) only draw from its
    outcome probabilities.

    Wire map: the commitment wires in natural (message, ancilla) order, the
    challenger's swap target M' next, then the adversary's ancillas; a
    register without qubits is left out. Nodes of probability zero are never
    reached, so they are left unset.
    """

    def __init__(self, scheme: CanonicalCommitment, adversary: Adversary):
        self.scheme = scheme
        self.adversary = adversary
        m = scheme.message_qubits
        regs = (("com", scheme.total_wires), ("M'", m), ("own", adversary.ancilla_qubits))
        lay = RegisterLayout.of(*[(name, size) for name, size in regs if size])
        wires = {name: lay.qubits_of(name) if size else [] for name, size in regs}
        self.n = lay.total_qubits
        self.com_wires, mprime, own = wires["com"], wires["M'"], wires["own"]
        prepare = _checked_gates(adversary.prepare, self.com_wires + own, "prepare")
        respond = None
        if adversary.respond is not None:
            respond = _checked_gates(adversary.respond, list(scheme.d_wires) + own, "respond")
        # Qubit order that exchanges the message wires with M'.
        self._swap_order = list(range(self.n))
        for w, wp in zip(range(m), mprime):
            self._swap_order[w], self._swap_order[wp] = wp, w

        vec = linalg.apply_gates(prepare, linalg.basis_vector(0, 2 ** self.n), self.n)
        self.p_open, opened = self._open_check(vec)
        self.p_second: list[Optional[float]] = [None, None]
        self.mprime_marginal: list[Optional[np.ndarray]] = [None, None]
        if respond is None or opened is None:
            return
        for b in (0, 1):
            # b = 1 swaps M' in before the first recommit, b = 0 after the
            # second check.
            vec = self._recommit(opened, swap=b == 1)
            p, vec = self._open_check(linalg.apply_gates(respond, vec, self.n))
            self.p_second[b] = p
            if vec is not None and adversary.reads_swap_target:
                vec = self._recommit(vec, swap=b == 0)
                self.mprime_marginal[b] = self._marginal(vec, mprime)

    def _open_check(self, vec: np.ndarray) -> tuple[float, Optional[np.ndarray]]:
        """Pass probability of the canonical opening check and the
        normalised state after passing (None when it cannot pass)."""
        vec = self.scheme.open_on(vec, self.com_wires, self.n)
        p = float(np.linalg.norm(vec) ** 2)
        return p, (vec / np.sqrt(p) if p > 0 else None)

    def _recommit(self, vec: np.ndarray, swap: bool) -> np.ndarray:
        if swap:
            vec = linalg.permute_vector(vec, self._swap_order, self.n)
        return self.scheme.commit_on(vec, self.com_wires, self.n)

    def _marginal(self, vec: np.ndarray, targets: list[int]) -> np.ndarray:
        """Normalised computational-basis distribution of the target wires."""
        marginal = (np.abs(linalg.split(vec, targets, self.n)) ** 2).sum(axis=1)
        return marginal / marginal.sum()


def _checked_gates(gates, held: list[int], phase: str) -> list[Gate]:
    """Adversary gates as complex matrices, each unitary and on held wires."""
    checked = []
    for mat, wires in gates:
        if not set(wires) <= set(held):
            raise RegisterError(
                f"adversary {phase} gate acts on wires {list(wires)}; "
                f"it holds only wires {held} then")
        checked.append((checked_unitary(mat, len(wires), "adversary operation"), tuple(wires)))
    return checked


def outcome_probabilities(game: DoubleOpenGame) -> np.ndarray:
    """Exact [win, lose, abort] probabilities of one double-opening
    experiment, summed over the leaves of the game's tree: the first check,
    a uniform b, the second check, then the guess, which reads M' (1 unless
    all-zero) or is a uniform bit. The adversary wins on b' = b."""
    p_open = min(game.p_open, 1.0)
    win = lose = 0.0
    abort = 1.0 - p_open
    reach = 0.5 * p_open
    for b in (0, 1):
        # Unreached nodes are left unset; walking away fails the second check.
        p_second = 0.0
        if reach and game.adversary.respond is not None:
            p_second = min(game.p_second[b], 1.0)
        abort += reach * (1.0 - p_second)
        if not p_second:
            continue
        if game.adversary.reads_swap_target:
            # M' holds the original message when the swap came first (b = 1).
            p_zero = float(game.mprime_marginal[b][0])
            hit = p_zero if b == 0 else 1.0 - p_zero
        else:
            hit = 0.5
        win += reach * p_second * hit
        lose += reach * p_second * (1.0 - hit)
    return np.array([win, lose, abort])


def run_double_open(game: DoubleOpenGame, trials: int, rng) -> tuple[int, int]:
    """(wins, aborts) over `trials` double-opening experiments: one
    multinomial draw from the game's exact outcome probabilities."""
    wins, _, aborts = rng.multinomial(trials, outcome_probabilities(game)).tolist()
    return wins, aborts


def double_open_win_rate(scheme, adversary: Adversary, trials: int, rng) -> tuple[float, int]:
    """Win rate over completed-and-aborted trials (aborts never count as
    wins) plus the abort count."""
    if trials < 1:
        raise ConfigError(f"double-opening game needs at least one trial, got {trials}")
    wins, aborts = run_double_open(DoubleOpenGame(scheme, adversary), trials, rng)
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
