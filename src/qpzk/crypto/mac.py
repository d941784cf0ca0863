"""Toy trap-based quantum message authentication code.

Encoding appends trap qubits in |0>, applies a keyed wire permutation and a
keyed Pauli mask. Decoding inverts both and accepts iff every trap measures
zero; on rejection the message register is replaced by the maximally mixed
state. A key's encoding is a signed permutation of basis indices, so it is
applied to a matrix by an index gather and a sign multiply; no key is ever a
dense unitary. Keys are enumerated exactly up to a configurable bound, so the
key-averaged real channel is computed without sampling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from qpzk.core import linalg
from qpzk.core.operators import P0, P1
from qpzk.core.registers import RegisterLayout
from qpzk.core.states import MixedState, PureState, QuantumState, partial_trace
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
        n_keys = math.factorial(self.code_qubits) * 4 ** self.code_qubits
        if n_keys > KEY_ENUMERATION_CAP:
            raise ConfigError(
                f"key space {n_keys} exceeds enumeration cap {KEY_ENUMERATION_CAP}; "
                "use fewer wires"
            )
        self.keys: tuple[MacKey, ...] = tuple(self._all_keys())

    def _all_keys(self) -> Iterable[MacKey]:
        wires = self.code_qubits
        for perm in itertools.permutations(range(wires)):
            for xm in itertools.product((0, 1), repeat=wires):
                for zm in itertools.product((0, 1), repeat=wires):
                    yield MacKey(perm, xm, zm)

    # -- per-key encodings ---------------------------------------------------

    def encode_unitary(self, key: MacKey) -> np.ndarray:
        """Pauli mask after the wire permutation, on all code wires, as a
        dense matrix: column j is sign[j] * e_index[j]."""
        index, sign = _signed_permutation(key)
        out = np.zeros((index.size, index.size), dtype=complex)
        out[index, np.arange(index.size)] = sign
        return out

    def encode(self, key: MacKey, message: QuantumState) -> MixedState:
        """Keyed encoding of a message state into the code register."""
        if message.n_qubits != self.message_qubits:
            raise DimensionMismatchError("message size mismatch")
        index, sign = _signed_permutation(key)
        rows = _traps_zero(self.message_qubits, self.traps, 0)
        s = sign[rows]
        out = np.zeros((index.size, index.size), dtype=complex)
        out[np.ix_(index[rows], index[rows])] = s[:, None] * message.density() * s[None, :]
        return MixedState(out, RegisterLayout.single("C", self.code_qubits))

    def decode(self, key: MacKey, code: QuantumState) -> tuple[float, Optional[MixedState]]:
        """Accept probability and the accepted message state (flag = 1).

        On rejection the decoder outputs the maximally mixed message, so the
        full channel is accept_p * (m x |1><1|) + (1-accept_p) * (mm x |0><0|).
        """
        if code.n_qubits != self.code_qubits:
            raise DimensionMismatchError("code size mismatch")
        trap_zero = _traps_zero(self.message_qubits, self.traps, 0)
        accepted = (_conjugate(code.density(), *_signed_permutation(key))
                    * np.outer(trap_zero, trap_zero))
        p = float(accepted.trace().real)
        if p <= 1e-12:
            return 0.0, None
        lay = RegisterLayout.of(("Msg", self.message_qubits), ("T", self.traps))
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
        # Insert trap wires in |0> between M and R: (M, R) + T -> (M, T, R).
        trap_zero = _traps_zero(nm, t, nr)
        n_all = nm + t + nr
        base = np.zeros((2 ** n_all, 2 ** n_all), dtype=complex)
        base[np.ix_(trap_zero, trap_zero)] = rho_mr.density()
        acc_mask = np.outer(trap_zero, trap_zero)
        keep_mr = list(range(nm)) + list(range(nm + t, n_all))
        keep_r = list(range(nm + t, n_all))
        acc_mr = rej_r = 0
        for key in self.keys:
            conj = _conjugate(attack, *_signed_permutation(key, nr))
            mat = conj @ base @ conj.conj().T
            accepted = mat * acc_mask
            acc_mr += linalg.partial_trace_matrix(accepted, keep_mr, n_all)
            rej_r += linalg.partial_trace_matrix(mat - accepted, keep_r, n_all)
        # Exact: the kron factors below are 0, 1 and 2^-nm, so summing over the
        # keys before the kron adds the same numbers in the same order.
        mm = np.eye(2 ** nm, dtype=complex) / 2 ** nm
        total = np.kron(acc_mr, P1) + np.kron(np.kron(mm, rej_r), P0)
        return total / len(self.keys)

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


def _signed_permutation(key: MacKey, r_qubits: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(index, sign) such that the key's encoding, times the identity on
    r_qubits trailing wires, sends basis j to sign[j] * e_index[j].

    The wire permutation sends code basis j to sigma(j); X^x then flips the
    masked bits and Z^z signs by the parity of the masked bits that are set.
    """
    n = len(key.permutation)
    x_bits = int("".join(map(str, key.x_mask)), 2)
    z_bits = int("".join(map(str, key.z_mask)), 2)
    index = linalg.permute_vector(np.arange(2 ** n), key.permutation, n) ^ x_bits
    sign = 1.0 - 2.0 * (np.bitwise_count(index & z_bits) & 1)
    r = np.arange(2 ** r_qubits)
    return (index[:, None] << r_qubits | r).ravel(), np.repeat(sign, r.size)


def _conjugate(mat: np.ndarray, index: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """enc^dagger @ mat @ enc for the signed permutation enc = (index, sign)."""
    return sign[:, None] * mat[index][:, index] * sign[None, :]


def _traps_zero(message_qubits: int, traps: int, r_qubits: int) -> np.ndarray:
    """Basis states of (M, T, R) whose trap bits are all zero."""
    index = np.arange(2 ** (message_qubits + traps + r_qubits))
    return (index >> r_qubits) % 2 ** traps == 0


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
