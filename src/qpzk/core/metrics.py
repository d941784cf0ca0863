"""Distance and overlap measures between states and classical-quantum
views, and the gentle-measurement post-state bound."""

from __future__ import annotations

import functools

import numpy as np

from qpzk.core import linalg
from qpzk.core.linalg import EPS
from qpzk.core.registers import RegisterLayout
from qpzk.core.states import MixedState, PureState, QuantumState
from qpzk.errors import DimensionMismatchError, StateValidationError, ZeroProbabilityError


def trace_distance(a: QuantumState, b: QuantumState) -> float:
    """Half the trace norm of the difference; in [0, 1] for states."""
    if a.dim != b.dim:
        raise DimensionMismatchError("trace distance of states with different dims")
    return linalg.half_trace_norm(a.density() - b.density())


def cq_trace_distance(a: dict, b: dict) -> float:
    """Trace distance of two classical-quantum views, the best advantage any
    distinguisher has (Helstrom): the sum over outcomes k of
    half_trace_norm(p_k rho_k - q_k sigma_k).

    A view maps a classical outcome to (probability, factors), its quantum
    part the tensor product of the factor states; an outcome missing from
    one view has probability 0 there. Outcomes go in a fixed order, a's keys
    then the keys only b has, one outcome's block at a time."""
    total = 0.0
    for key in [*a, *(k for k in b if k not in a)]:
        factors = (a.get(key) or b[key])[1]
        x, y = (_block(*view.get(key, (0.0, factors))) for view in (a, b))
        total += linalg.half_trace_norm(x - y)
    return total


def _block(p: float, factors) -> np.ndarray:
    """p times the tensor product of the factor states; the product's layout
    is built first, so a block over the qubit cap raises before it is
    allocated."""
    RegisterLayout.of(*((f"F{i}", f.n_qubits) for i, f in enumerate(factors)))
    return p * functools.reduce(np.kron, [f.density() for f in factors])


def fidelity(a: QuantumState, b: QuantumState) -> float:
    """Squared-overlap fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2.

    Equals |<psi|phi>|^2 on pure inputs and the maximal squared overlap of
    purifications in general.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError("fidelity of states with different dims")
    if isinstance(a, PureState) and isinstance(b, PureState):
        return float(abs(a.overlap(b)) ** 2)
    if isinstance(a, PureState):
        # <psi| b |psi>
        return float(np.vdot(a.amplitudes, b.density() @ a.amplitudes).real)
    if isinstance(b, PureState):
        return float(np.vdot(b.amplitudes, a.density() @ b.amplitudes).real)
    # (Tr sqrt(sqrt(a) b sqrt(a)))^2 computed as the squared nuclear norm of
    # sqrt(a) sqrt(b); identical in exact arithmetic, far better conditioned.
    ra = linalg.psd_sqrt(a.density())
    rb = linalg.psd_sqrt(b.density())
    sing = np.linalg.svd(ra @ rb, compute_uv=False)
    return float(sing.sum() ** 2)


def gentle_post_state(rho: QuantumState, pi: np.ndarray, acts_on=None):
    """Project, renormalize, and report the disturbance bound.

    Returns (p, post, bound) with p = Tr(pi rho), post the renormalized
    projected state and bound = sqrt(1 - p); the trace distance between rho
    and post never exceeds the bound.
    """
    from qpzk.core.states import apply_matrix

    acts = tuple(acts_on) if acts_on is not None else rho.layout.names
    mixed = rho.to_mixed()
    pi = np.asarray(pi, dtype=complex)
    if not linalg.is_projector(pi):
        raise StateValidationError("pi is not an orthogonal projector within 1e-9")
    projected = apply_matrix(mixed, pi, acts)
    p = float(projected.trace().real)
    if p <= EPS:
        raise ZeroProbabilityError("projector accepts with probability zero")
    post = MixedState.computed(projected / p, mixed.layout)
    bound = float(np.sqrt(max(1.0 - p, 0.0)))
    return p, post, bound


def max_povm_advantage_dim2(a: QuantumState, b: QuantumState) -> float:
    """Best two-outcome distinguishing advantage on a single qubit, attained
    by the projector onto the positive eigenspace of the difference; it
    equals the trace distance."""
    if a.dim != 2 or b.dim != 2:
        raise DimensionMismatchError("dim-2 advantage needs single qubits")
    diff = a.density() - b.density()
    vals, vecs = np.linalg.eigh((diff + diff.conj().T) / 2)
    pos = vecs[:, vals > 0]
    proj = pos @ pos.conj().T
    return abs(float(np.trace(proj @ diff).real))
