"""Distance and overlap measures between states, and the gentle-measurement
post-state bound."""

from __future__ import annotations

import numpy as np

from qpzk.core import linalg
from qpzk.core.linalg import EPS
from qpzk.core.states import MixedState, PureState, QuantumState
from qpzk.errors import DimensionMismatchError, ZeroProbabilityError


def _density(state: QuantumState) -> np.ndarray:
    return state.density()


def trace_distance(a: QuantumState, b: QuantumState) -> float:
    """Half the trace norm of the difference; in [0, 1] for states."""
    if a.dim != b.dim:
        raise DimensionMismatchError("trace distance of states with different dims")
    return linalg.half_trace_norm(_density(a) - _density(b))


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
        return float(np.vdot(a.amplitudes, _density(b) @ a.amplitudes).real)
    if isinstance(b, PureState):
        return float(np.vdot(b.amplitudes, _density(a) @ b.amplitudes).real)
    # (Tr sqrt(sqrt(a) b sqrt(a)))^2 computed as the squared nuclear norm of
    # sqrt(a) sqrt(b); identical in exact arithmetic, far better conditioned.
    ra = linalg.psd_sqrt(_density(a))
    rb = linalg.psd_sqrt(_density(b))
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
    projected = apply_matrix(mixed, np.asarray(pi, dtype=complex), acts)
    p = float(projected.trace().real)
    if p <= EPS:
        raise ZeroProbabilityError("projector accepts with probability zero")
    post = MixedState(projected / p, mixed.layout)
    bound = float(np.sqrt(max(1.0 - p, 0.0)))
    return p, post, bound


def purity(state: QuantumState) -> float:
    if isinstance(state, PureState):
        return 1.0
    return state.purity()


def max_povm_advantage_dim2(a: QuantumState, b: QuantumState, grid: int = 200):
    """Best two-outcome distinguishing advantage on a single qubit.

    Returns (grid_max, eig_max): the advantage maximized over a Bloch-sphere
    grid of rank-one projectors, and the exact optimum from the positive
    eigenspace projector of the difference. Both lower-bound the trace
    distance; the eigenspace value attains it.
    """
    if a.dim != 2 or b.dim != 2:
        raise DimensionMismatchError("dim-2 advantage scan needs single qubits")
    diff = _density(a) - _density(b)
    best = 0.0
    thetas = np.linspace(0.0, np.pi, grid)
    phis = np.linspace(0.0, 2 * np.pi, grid, endpoint=False)
    for th in thetas:
        c, s = np.cos(th / 2), np.sin(th / 2)
        for ph in phis:
            v = np.array([c, np.exp(1j * ph) * s])
            adv = abs(float(np.vdot(v, diff @ v).real))
            if adv > best:
                best = adv
    vals, vecs = np.linalg.eigh((diff + diff.conj().T) / 2)
    pos = vecs[:, vals > 0]
    proj = pos @ pos.conj().T
    eig_max = abs(float(np.trace(proj @ diff).real))
    return best, eig_max
