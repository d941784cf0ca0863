"""Toy trap-based quantum message authentication code.

Encoding appends trap qubits in |0>, applies a keyed wire permutation and a
keyed Pauli mask. Decoding inverts both and accepts iff every trap measures
zero; on rejection the message register is replaced by the maximally mixed
state. Keys are enumerated exactly up to a configurable bound, so the
key-averaged real channel is computed without sampling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from qpzk.core import linalg
from qpzk.core.operators import P0, P1, X, Z
from qpzk.core.registers import RegisterLayout
from qpzk.core.states import MixedState, PureState, QuantumState
from qpzk.errors import ConfigError, DimensionMismatchError

KEY_ENUMERATION_CAP = 2 ** 16


@dataclass(frozen=True)
class MacKey:
    permutation: tuple[int, ...]  # logical wire i moves to position permutation[i]
    x_mask: tuple[int, ...]
    z_mask: tuple[int, ...]


class QuantumMac:
    """Trap code with `message_qubits` payload wires and `traps` trap wires."""

    def __init__(self, message_qubits: int = 1, traps: int = 3):
        if message_qubits < 1 or traps < 1:
            raise ConfigError("need at least one message qubit and one trap")
        self.message_qubits = message_qubits
        self.traps = traps
        self.code_qubits = message_qubits + traps
        n_keys = _factorial(self.code_qubits) * 4 ** self.code_qubits
        if n_keys > KEY_ENUMERATION_CAP:
            raise ConfigError(
                f"key space {n_keys} exceeds enumeration cap {KEY_ENUMERATION_CAP}; "
                "use fewer wires"
            )
        self.keys: tuple[MacKey, ...] = tuple(self._all_keys())
        self._enc_cache: dict[MacKey, np.ndarray] = {}

    def _all_keys(self) -> Iterable[MacKey]:
        wires = self.code_qubits
        for perm in itertools.permutations(range(wires)):
            for xm in itertools.product((0, 1), repeat=wires):
                for zm in itertools.product((0, 1), repeat=wires):
                    yield MacKey(perm, xm, zm)

    # -- per-key unitaries ---------------------------------------------------

    def encode_unitary(self, key: MacKey) -> np.ndarray:
        """Pauli mask after the wire permutation, on all code wires."""
        cached = self._enc_cache.get(key)
        if cached is not None:
            return cached
        wires = self.code_qubits
        perm_mat = _permutation_unitary(key.permutation, wires)
        mask = np.eye(1, dtype=complex)
        for x_bit, z_bit in zip(key.x_mask, key.z_mask):
            op = np.eye(2, dtype=complex)
            if x_bit:
                op = X @ op
            if z_bit:
                op = Z @ op
            mask = np.kron(mask, op)
        out = mask @ perm_mat
        out.setflags(write=False)
        self._enc_cache[key] = out
        return out

    def encode(self, key: MacKey, message: QuantumState) -> MixedState:
        """Keyed encoding of a message state into the code register."""
        if message.n_qubits != self.message_qubits:
            raise DimensionMismatchError("message size mismatch")
        traps = PureState.computational(RegisterLayout.single("T", self.traps))
        mat = np.kron(message.density(), traps.density())
        enc = self.encode_unitary(key)
        out = enc @ mat @ enc.conj().T
        return MixedState(out, RegisterLayout.single("C", self.code_qubits))

    def decode(self, key: MacKey, code: QuantumState) -> tuple[float, Optional[MixedState]]:
        """Accept probability and the accepted message state (flag = 1).

        On rejection the decoder outputs the maximally mixed message, so the
        full channel is accept_p * (m x |1><1|) + (1-accept_p) * (mm x |0><0|).
        """
        if code.n_qubits != self.code_qubits:
            raise DimensionMismatchError("code size mismatch")
        enc = self.encode_unitary(key)
        mat = enc.conj().T @ code.density() @ enc
        trap_zero = _projector_traps_zero(self.message_qubits, self.traps)
        accepted = trap_zero @ mat @ trap_zero
        p = float(accepted.trace().real)
        if p <= 1e-12:
            return 0.0, None
        lay = RegisterLayout.of(("Msg", self.message_qubits), ("T", self.traps))
        from qpzk.core.states import partial_trace

        post = partial_trace(MixedState(accepted / p, lay), "T")
        return p, post

    # -- exact key-averaged channels ------------------------------------------

    def real_channel_output(self, attack: np.ndarray, rho_mr: QuantumState,
                            r_qubits: int) -> np.ndarray:
        """Key-averaged decode(attack(encode(rho))) on registers (M, R, F)."""
        nm, t, nr = self.message_qubits, self.traps, r_qubits
        if rho_mr.n_qubits != nm + nr:
            raise DimensionMismatchError("joint input must live on (M, R)")
        code_r = self.code_qubits + nr
        if attack.shape != (2 ** code_r, 2 ** code_r):
            raise DimensionMismatchError("attack must act on (C, R)")
        # Insert trap wires between M and R: (M, R) + T -> (M, T, R).
        base = np.kron(rho_mr.density(), _zero_density(t))
        order = list(range(nm)) + list(range(nm + nr, nm + nr + t)) + list(range(nm, nm + nr))
        base = linalg.permute_matrix(base, order, nm + nr + t)

        trap_zero = _projector_traps_zero(nm, t)
        out_dim = 2 ** (nm + nr + 1)
        total = np.zeros((out_dim, out_dim), dtype=complex)
        mm = np.eye(2 ** nm, dtype=complex) / 2 ** nm
        n_all = nm + t + nr
        acc_proj = linalg.embed(trap_zero, list(range(nm + t)), n_all)
        keep_mr = list(range(nm)) + list(range(nm + t, n_all))
        keep_r = list(range(nm + t, n_all))
        eye_r = np.eye(2 ** nr, dtype=complex)
        for key in self.keys:
            enc = np.kron(self.encode_unitary(key), eye_r)
            conj = enc.conj().T @ attack @ enc
            mat = conj @ base @ conj.conj().T
            accepted = acc_proj @ mat @ acc_proj
            rejected = mat - accepted
            acc_mr = linalg.partial_trace_matrix(accepted, keep_mr, n_all)
            rej_r = linalg.partial_trace_matrix(rejected, keep_r, n_all)
            total += np.kron(acc_mr, P1) + np.kron(np.kron(mm, rej_r), P0)
        return total / len(self.keys)

    def decode_sampled(self, key: MacKey, code: QuantumState, rng):
        """(message, flag) with the flag drawn from the trap statistics; the
        rejected branch yields the maximally mixed message."""
        p, post = self.decode(key, code)
        if rng.random() < p:
            return post, 1
        lay = RegisterLayout.single("Msg", self.message_qubits)
        return MixedState.maximally_mixed(lay), 0

    def detection_probability(self, attack: np.ndarray,
                              message: Optional[QuantumState] = None) -> float:
        """Exact key-averaged probability that the flag reads 0."""
        if message is None:
            message = PureState.computational(
                RegisterLayout.single("Msg", self.message_qubits))
        out = self.real_channel_output(
            np.asarray(attack, dtype=complex), message, r_qubits=0)
        n_out = self.message_qubits + 1
        flag = linalg.partial_trace_matrix(out, [n_out - 1], n_out)
        return float(flag[0, 0].real)


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def _permutation_unitary(perm: tuple[int, ...], n: int) -> np.ndarray:
    """Unitary moving wire i to position perm[i]."""
    order = [0] * n
    for i, p in enumerate(perm):
        order[p] = i
    return linalg.permutation_unitary(order, n)


def _zero_density(qubits: int) -> np.ndarray:
    d = 2 ** qubits
    out = np.zeros((d, d), dtype=complex)
    out[0, 0] = 1.0
    return out


def _projector_traps_zero(message_qubits: int, traps: int) -> np.ndarray:
    zeros = np.zeros((2 ** traps, 2 ** traps), dtype=complex)
    zeros[0, 0] = 1.0
    return np.kron(np.eye(2 ** message_qubits, dtype=complex), zeros)


# -- real vs ideal -----------------------------------------------------------


def ideal_channel_output(simulator_acc, simulator_rej, rho_mr: QuantumState,
                         message_qubits: int, r_qubits: int) -> np.ndarray:
    """Ideal channel on (M, R, F): accept branch leaves the message alone and
    applies the accept map to R; reject replaces the message by the maximally
    mixed state. Simulator maps are Kraus lists on R summing to a channel."""
    nm, nr = message_qubits, r_qubits
    rho = rho_mr.density()
    n = nm + nr
    acc = np.zeros_like(rho)
    for k in simulator_acc:
        kk = np.kron(np.eye(2 ** nm, dtype=complex), np.asarray(k, dtype=complex))
        acc += kk @ rho @ kk.conj().T
    rej = np.zeros_like(rho)
    for k in simulator_rej:
        kk = np.kron(np.eye(2 ** nm, dtype=complex), np.asarray(k, dtype=complex))
        rej += kk @ rho @ kk.conj().T
    mm = np.eye(2 ** nm, dtype=complex) / 2 ** nm
    rej_r = linalg.partial_trace_matrix(rej, list(range(nm, n)), n)
    return np.kron(acc, P1) + np.kron(np.kron(mm, rej_r), P0)


def mac_real_vs_ideal(mac: QuantumMac, attack: np.ndarray, rho_mr: QuantumState,
                      simulator_acc, simulator_rej, r_qubits: int) -> float:
    """Trace distance between the key-averaged real channel output and the
    ideal channel with the supplied simulator pair."""
    real = mac.real_channel_output(np.asarray(attack, dtype=complex), rho_mr, r_qubits)
    ideal = ideal_channel_output(simulator_acc, simulator_rej, rho_mr,
                                 mac.message_qubits, r_qubits)
    return linalg.half_trace_norm(real - ideal)


def natural_simulator(mac: QuantumMac, code_attack: np.ndarray, r_qubits: int,
                      r_unitary: Optional[np.ndarray] = None):
    """Simulator pair for a product attack code_attack x r_unitary: the
    accept weight is the exact key-averaged non-detection probability and
    the R side applies the attack's own R factor."""
    q = 1.0 - mac.detection_probability(np.asarray(code_attack, dtype=complex))
    u = np.eye(2 ** r_qubits, dtype=complex) if r_unitary is None else r_unitary
    acc = [np.sqrt(q) * u] if q > 0 else []
    rej = [np.sqrt(1.0 - q) * u] if q < 1.0 else []
    return acc, rej
