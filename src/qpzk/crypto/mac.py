"""Toy trap-based quantum message authentication code.

Encoding appends trap qubits in |0>, applies a keyed wire permutation and a
keyed Pauli mask. Decoding inverts both and accepts iff every trap measures
zero; on rejection the message register is replaced by the maximally mixed
state. The keys are one table of signed permutations of basis indices, so a
key acts by an index gather and a sign multiply, never as a dense unitary.
The key space is held to the fixed KEY_ENUMERATION_CAP, and the key-averaged
real channel is computed exactly, as a Pauli twirl, without sampling.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

import numpy as np

from qpzk.core import linalg
from qpzk.core.operators import P0, P1
from qpzk.core.registers import RegisterLayout
from qpzk.core.states import MixedState, PureState, QuantumState
from qpzk.errors import ConfigError, DimensionMismatchError

KEY_ENUMERATION_CAP = 2 ** 16


class QuantumMac:
    """Trap code with `message_qubits` payload wires and `traps` trap wires.

    Key k sends code basis j to sign[k, j] * e_index[k, j]. Keys run over the
    wire permutations, then the X mask, then the Z mask, each in lexicographic
    order.
    """

    def __init__(self, message_qubits: int = 1, traps: int = 3):
        if message_qubits < 1 or traps < 1:
            raise ConfigError("need at least one message qubit and one trap")
        self.message_qubits = message_qubits
        self.traps = traps
        self.code_qubits = n = message_qubits + traps
        n_keys = math.factorial(n) * 4 ** n
        if n_keys > KEY_ENUMERATION_CAP:
            raise ConfigError(
                f"key space {n_keys} exceeds enumeration cap {KEY_ENUMERATION_CAP}; "
                "use fewer wires"
            )
        self.message_layout = RegisterLayout.single("Msg", message_qubits)
        self.code_layout = RegisterLayout.single("C", n)
        # Wire permutation p sends basis j to the index whose bit perm[i] is
        # bit i of j. X^x then flips the masked bits, and Z^z signs by the
        # parity of the masked bits that are set.
        d, masks = 2 ** n, np.arange(2 ** n)
        wire_perms = np.array([linalg.permute_vector(masks, perm, n)
                               for perm in itertools.permutations(range(n))])
        index = np.repeat(wire_perms[:, None, None, :] ^ masks[:, None, None], d, axis=2)
        sign = 1.0 - 2.0 * (np.bitwise_count(index & masks[:, None]) & 1)
        self.index, self.sign = index.reshape(-1, d), sign.reshape(-1, d)
        self.keys = range(n_keys)
        # Code basis states, and equally X masks, with every trap bit zero.
        self.trap_zero = masks % 2 ** traps == 0

    # -- per-key encodings ---------------------------------------------------

    def encode_unitary(self, key: int) -> np.ndarray:
        """Pauli mask after the wire permutation, on all code wires, as a
        dense matrix: column j is sign[key, j] * e_index[key, j]."""
        return _dense(self.index[[key]], self.sign[[key]])[0]

    def encode(self, key: int, message: QuantumState) -> MixedState:
        """Keyed encoding of a message state into the code register."""
        if message.n_qubits != self.message_qubits:
            raise DimensionMismatchError("message size mismatch")
        rows = self.trap_zero
        index, s = self.index[key][rows], self.sign[key][rows]
        out = np.zeros((rows.size, rows.size), dtype=complex)
        out[np.ix_(index, index)] = s[:, None] * message.density() * s[None, :]
        return MixedState.computed(out, self.code_layout)

    def decode(self, key: int, code: QuantumState) -> tuple[float, Optional[MixedState]]:
        """Accept probability and the accepted message state (flag = 1).

        On rejection the decoder outputs the maximally mixed message, so the
        full channel is accept_p * (m x |1><1|) + (1-accept_p) * (mm x |0><0|).
        """
        if code.n_qubits != self.code_qubits:
            raise DimensionMismatchError("code size mismatch")
        accepted = (_conjugate(code.density(), self.index[key], self.sign[key])
                    * np.outer(self.trap_zero, self.trap_zero))
        p = float(accepted.trace().real)
        if p <= 1e-12:
            return 0.0, None
        message = linalg.partial_trace_matrix(
            accepted / p, list(range(self.message_qubits)), self.code_qubits)
        return p, MixedState.computed(message, self.message_layout)

    # -- exact key-averaged channels ------------------------------------------

    def real_channel_output(self, attack: np.ndarray, rho_mr: QuantumState,
                            r_qubits: int) -> np.ndarray:
        """Key-averaged decode(attack(encode(rho))) on registers (M, R, F).

        Write the attack as sum_P P x A_P over the Paulis P = Z^z X^x on the
        code wires. The keys' Pauli masks cancel every cross term, so only
        the wire permutation is averaged. A term passes the trap check
        exactly when no wire placed on a trap carries an X part; it then acts
        on the message as P's factors on the wires placed there. Otherwise it
        adds A_P rho_R A_P^dagger to the reject branch, wherever it lands.
        """
        nm, nr = self.message_qubits, r_qubits
        if rho_mr.n_qubits != nm + nr:
            raise DimensionMismatchError("joint input must live on (M, R)")
        d, dm, dr = 2 ** self.code_qubits, 2 ** nm, 2 ** nr
        if attack.shape != (d * dr, d * dr):
            raise DimensionMismatchError("attack must act on (C, R)")
        # The keys with the identity permutation are the Paulis Z^z X^x, over x
        # and then z. The keys with zero masks are the wire permutations sigma;
        # under sigma, logical Z^z X^x is physical Z^sigma(z) X^sigma(x).
        paulis = _dense(self.index[:d * d], self.sign[:d * d])
        sigma = self.index[:: d * d]
        a_p = np.einsum("pij,iajb->pab", paulis.conj(),
                        attack.reshape(d, dr, d, dr)).reshape(d, d, dr, dr) / d
        # A passing P acts on the message as its block between trap-zero states.
        tz = self.trap_zero
        msg_pauli = paulis.reshape(d, d, d, d)[np.ix_(tz, np.arange(d), tz, tz)]
        passed = a_p[sigma[:, tz, None], sigma[:, None, :]]
        kraus = np.einsum("xzij,pxzab->pxziajb", msg_pauli,
                          passed).reshape(-1, dm * dr, dm * dr)
        rho = rho_mr.density()
        acc_mr = np.einsum("kij,jl,kml->im", kraus, rho, kraus.conj()) / len(sigma)
        # The share of permutations under which P's X part lands on a trap.
        reject_share = np.bincount(sigma[:, ~tz].ravel(), minlength=d) / len(sigma)
        rho_r = linalg.partial_trace_matrix(rho, list(range(nm, nm + nr)), nm + nr)
        rej_r = np.einsum("x,xzij,jl,xzml->im", reject_share, a_p, rho_r, a_p.conj())
        mm = np.eye(dm, dtype=complex) / dm
        return np.kron(acc_mr, P1) + np.kron(np.kron(mm, rej_r), P0)

    def detection_probability(self, attack: np.ndarray) -> float:
        """Exact key-averaged probability that the flag reads 0 on the
        all-zeros message."""
        out = self.real_channel_output(np.asarray(attack, dtype=complex),
                                       PureState.computational(self.message_layout),
                                       r_qubits=0)
        n_out = self.message_qubits + 1
        flag = linalg.partial_trace_matrix(out, [n_out - 1], n_out)
        return float(flag[0, 0].real)


def _dense(index: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Stacked dense matrices of signed permutation rows: column j of
    matrix k is sign[k, j] * e_index[k, j]."""
    k, d = index.shape
    out = np.zeros((k, d, d), dtype=complex)
    out[np.arange(k)[:, None], index, np.arange(d)] = sign
    return out


def _conjugate(mat: np.ndarray, index: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """enc^dagger @ mat @ enc for the signed permutation enc = (index, sign)."""
    return sign[:, None] * mat[index][:, index] * sign[None, :]


# -- real vs ideal -----------------------------------------------------------


def ideal_channel_output(simulator_acc, simulator_rej, rho_mr: QuantumState,
                         message_qubits: int, r_qubits: int) -> np.ndarray:
    """Ideal channel on (M, R, F): accept branch leaves the message alone and
    applies the accept map to R; reject replaces the message by the maximally
    mixed state. Simulator maps are Kraus lists on R summing to a channel."""
    nm, nr = message_qubits, r_qubits
    rho = rho_mr.density()
    rho_r = linalg.partial_trace_matrix(rho, list(range(nm, nm + nr)), nm + nr)
    eye_m = np.eye(2 ** nm, dtype=complex)
    acc = np.zeros_like(rho)
    for k in simulator_acc:
        kk = np.kron(eye_m, np.asarray(k, dtype=complex))
        acc += kk @ rho @ kk.conj().T
    rej_r = np.zeros_like(rho_r)
    for k in simulator_rej:
        k = np.asarray(k, dtype=complex)
        rej_r += k @ rho_r @ k.conj().T
    return np.kron(acc, P1) + np.kron(np.kron(eye_m / 2 ** nm, rej_r), P0)


def mac_real_vs_ideal(mac: QuantumMac, attack: np.ndarray, rho_mr: QuantumState,
                      simulator_acc, simulator_rej, r_qubits: int) -> float:
    """Trace distance between the key-averaged real channel output and the
    ideal channel with the supplied simulator pair."""
    real = mac.real_channel_output(np.asarray(attack, dtype=complex), rho_mr, r_qubits)
    ideal = ideal_channel_output(simulator_acc, simulator_rej, rho_mr,
                                 mac.message_qubits, r_qubits)
    return linalg.half_trace_norm(real - ideal)


def natural_simulator(mac: QuantumMac, code_attack: np.ndarray, r_qubits: int):
    """Simulator pair for a product attack code_attack x identity on R: the
    accept weight is the exact key-averaged non-detection probability and
    R is left alone."""
    q = 1.0 - mac.detection_probability(np.asarray(code_attack, dtype=complex))
    u = np.eye(2 ** r_qubits, dtype=complex)
    acc = [np.sqrt(q) * u] if q > 0 else []
    rej = [np.sqrt(1.0 - q) * u] if q < 1.0 else []
    return acc, rej
