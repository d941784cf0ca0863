"""Small built-in base protocols used by tests and the experiment harness."""

from __future__ import annotations

import numpy as np

from qpzk.core import linalg
from qpzk.core.operators import CNOT_REVERSED, X, swap_registers
from qpzk.core.registers import RegisterLayout
from qpzk.core.states import PureState
from qpzk.protocol import InteractiveProtocol


def ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def copier_base() -> InteractiveProtocol:
    """Two rounds, single-qubit registers, perfect completeness: the honest
    prover writes 1 into M, the verifier copies it into W."""
    psi_v = PureState.from_bits(RegisterLayout.single("W", 1), "0")
    v1 = CNOT_REVERSED
    v2 = np.eye(4, dtype=complex)
    p = np.kron(np.eye(2, dtype=complex), X)
    return InteractiveProtocol.from_verifier_start(psi_v, 1, 1, [v1, v2], [p, p])


def rotated_copier_base(theta: float) -> InteractiveProtocol:
    """Copier variant whose final check rotates W first; the honest value is
    cos(theta/2)^2 and cheating provers cannot beat the larger of the two
    rotation components."""
    psi_v = PureState.from_bits(RegisterLayout.single("W", 1), "0")
    v1 = CNOT_REVERSED
    v2 = np.kron(ry(theta), np.eye(2, dtype=complex))
    p = np.kron(np.eye(2, dtype=complex), X)
    return InteractiveProtocol.from_verifier_start(
        psi_v, 1, 1, [v1, v2], [p, np.eye(4, dtype=complex)])


def random_perfect_base(seed: int) -> InteractiveProtocol:
    """Random two-round base with acceptance probability exactly one: the
    final verifier unitary is built to rotate the support of the reachable
    workspace-message state into the accepting subspace."""
    from qpzk.core.sampling import random_unitary, rng_from

    g = rng_from(8600, seed)
    psi_v = PureState.from_bits(RegisterLayout.single("W", 1), "0")
    p1, v1, p2 = (random_unitary(4, g) for _ in range(3))
    # State before V2 on (R, W, M) with R = 1 qubit.
    probe = InteractiveProtocol.from_verifier_start(
        psi_v, 1, 1, [v1, np.eye(4, dtype=complex)], [p1, p2])
    pre = probe.evolve(upto_message=3).amplitudes
    rho_wm = linalg.partial_trace_vector(pre, [1, 2], 3)
    vals, vecs = np.linalg.eigh(rho_wm)
    support = [vecs[:, i] for i in range(4) if vals[i] > 1e-12]
    if len(support) > 2:
        raise ValueError("reachable support too large for a 1-qubit prover")
    basis = _complete_basis(support)
    accept = [np.array([0, 0, 1, 0], complex), np.array([0, 0, 0, 1], complex),
              np.array([1, 0, 0, 0], complex), np.array([0, 1, 0, 0], complex)]
    v2 = sum(np.outer(accept[i], basis[i].conj()) for i in range(4))
    return InteractiveProtocol.from_verifier_start(psi_v, 1, 1, [v1, v2], [p1, p2])


def _complete_basis(vectors):
    """Orthonormal completion of a partial orthonormal family."""
    dim = vectors[0].shape[0]
    basis = [v / np.linalg.norm(v) for v in vectors]
    for i in range(dim):
        cand = np.zeros(dim, dtype=complex)
        cand[i] = 1.0
        for b in basis:
            cand = cand - np.vdot(b, cand) * b
        norm = np.linalg.norm(cand)
        if norm > 1e-9:
            basis.append(cand / norm)
        if len(basis) == dim:
            break
    return basis


def partial_coupler_base(alpha: float, beta: float) -> InteractiveProtocol:
    """Single-qubit-workspace base with tunable prover reach: the message
    drives W only through a controlled partial rotation, and the final
    check rotates W before reading it. Small alpha keeps the reachable
    workspace states near |0> and the soundness value well below one."""
    psi_v = PureState.from_bits(RegisterLayout.single("W", 1), "0")
    # Control on M (second wire), rotate W (first wire); basis |w m>.
    ctrl = np.zeros((4, 4), dtype=complex)
    r = ry(alpha)
    ctrl[0, 0] = ctrl[2, 2] = 1.0
    ctrl[1, 1], ctrl[1, 3] = r[0, 0], r[0, 1]
    ctrl[3, 1], ctrl[3, 3] = r[1, 0], r[1, 1]
    v2 = np.kron(ry(beta), np.eye(2, dtype=complex))
    p1 = np.kron(np.eye(2, dtype=complex), X)
    return InteractiveProtocol.from_verifier_start(
        psi_v, 1, 1, [ctrl, v2], [p1, np.eye(4, dtype=complex)])


def hidden_target_base(theta: float = 0.0) -> InteractiveProtocol:
    """Two-qubit workspace whose accept condition reads a workspace qubit
    the prover can never reach, giving a genuinely small soundness error:
    the second W qubit stays |0> while acceptance wants it rotated to |1>.
    """
    w = 2
    psi_v = PureState.from_bits(RegisterLayout.single("W", w), "00")
    n_wm = w + 1
    # V1 couples M into the first W qubit only.
    v1 = linalg.embed(CNOT_REVERSED, [0, 2], n_wm)
    # V2 rotates the second W qubit by theta and swaps it into the measured
    # slot; acceptance probability for any prover is sin(theta/2)^2.
    v2 = linalg.gate_product([(ry(theta), [1]), (swap_registers(1), [0, 1])], n_wm)
    p1 = np.kron(np.eye(2 ** w, dtype=complex), X)  # R is w qubits here
    return InteractiveProtocol.from_verifier_start(
        psi_v, w, 1, [v1, v2], [p1, np.eye(2 ** (w + 1), dtype=complex)])
