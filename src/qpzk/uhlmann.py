"""Purification-matching unitaries and the cut-and-choose delegation protocol.

An instance is a pair of unitaries C, D preparing bipartite pure states with
equal reduced densities on the kept register R; the matching unitary U on
the other register satisfies (Id x U)|C> = |D> and is computed from the
polar decomposition of the cross-overlap block of the two state matrices.

The protocol runs gamma = 8 delta^2 rounds; in all but one the verifier
ships the prover a fresh |C> half and tests the returned state against |D>,
and in the remaining, uniformly hidden round it ships the real target. The
trace-distance guarantee for provers that keep the verifier from aborting
is checked against 1/delta.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from qpzk.core import linalg
from qpzk.core.operators import UnitaryOp, checked_unitary
from qpzk.core.registers import RegisterLayout
from qpzk.core.states import MixedState, PureState, QuantumState, apply_unitary
from qpzk.errors import (
    ConfigError,
    DimensionMismatchError,
    OracleBudgetError,
    RegisterError,
    StateValidationError,
)
from qpzk.serialize import (complex_matrix_from_json, complex_matrix_to_json, read_field,
                            read_float, read_int, read_json)

DEFAULT_DELTA = 2.0


def rounds_for(delta: float, field: str = "delta") -> int:
    """gamma = round(8 delta^2), the protocol's round count; a delta that
    is not finite or gives no round is a ConfigError naming `field`."""
    if not 0.25 < delta <= sys.float_info.max:
        raise ConfigError(f"{field}: must be finite and above 0.25, so that "
                          f"round(8 delta^2) is at least one round; got {delta!r}")
    return int(round(8 * delta ** 2))


@dataclass(frozen=True)
class UhlmannInstance:
    """Preparation unitaries on (R, S) plus the round parameters."""

    c_unitary: np.ndarray
    d_unitary: np.ndarray
    r_qubits: int
    s_qubits: int
    delta: float = DEFAULT_DELTA

    def __post_init__(self):
        for name in ("c_unitary", "d_unitary"):
            object.__setattr__(self, name, checked_unitary(
                getattr(self, name), self.r_qubits + self.s_qubits, f"{name} on R and S"))
        rounds_for(self.delta)
        rc = self.reduced_r(self.c_vector())
        rd = self.reduced_r(self.d_vector())
        if not linalg.close(rc, rd, 1e-9):
            raise StateValidationError(
                "the two preparations have different reduced states on R")
        if np.linalg.eigvalsh(rc).min() <= 1e-9:
            raise StateValidationError("reduced state on R must be invertible")

    @property
    def gamma(self) -> int:
        return rounds_for(self.delta)

    @property
    def layout(self) -> RegisterLayout:
        return RegisterLayout.of(("R", self.r_qubits), ("S", self.s_qubits))

    def c_vector(self) -> np.ndarray:
        return self.c_unitary[:, 0].copy()

    def d_vector(self) -> np.ndarray:
        return self.d_unitary[:, 0].copy()

    def reduced_r(self, vec: np.ndarray) -> np.ndarray:
        x = vec.reshape(2 ** self.r_qubits, 2 ** self.s_qubits)
        return x @ x.conj().T


@dataclass(frozen=True)
class UhlmannUnitary:
    """Matching unitary on S with its verification residual. With an
    invertible reduced state the map is supported everywhere, so no
    completion is needed."""

    matrix: np.ndarray
    residual: float


def compute_uhlmann(inst: UhlmannInstance) -> UhlmannUnitary:
    """The unitary U on S with (Id x U)|C> = |D>.

    Writing the states as matrices X_C, X_D over (R rows, S columns), equal
    R-reductions give X_C = R sqrt(L) A^dag and X_D = R sqrt(L) B^dag in a
    shared eigenbasis, so the cross block X_C^dag X_D = A L B^dag carries the
    basis alignment; its polar unitary transposed is U. Degenerate spectra
    need no special casing because the polar factor of the cross block fixes
    the in-cluster alignment. The defining identity is verified before the
    result is returned.
    """
    dim_s = 2 ** inst.s_qubits
    xc = inst.c_vector().reshape(-1, dim_s)
    xd = inst.d_vector().reshape(-1, dim_s)
    cross = xc.conj().T @ xd
    u = linalg.polar_unitary(cross).T
    mapped = (xc @ u.T).reshape(-1)
    residual = float(np.linalg.norm(mapped - inst.d_vector()))
    if residual > 1e-9:
        raise StateValidationError(
            f"matching unitary residual {residual:.3e} exceeds tolerance")
    return UhlmannUnitary(u, residual)


# -- provers -------------------------------------------------------------------


ProverRule = Callable[[int], np.ndarray]


def honest_prover(inst: UhlmannInstance) -> ProverRule:
    u = compute_uhlmann(inst).matrix
    return lambda i: u


def perturbed_prover(inst: UhlmannInstance, angle: float) -> ProverRule:
    """The matching unitary composed with a small rotation on the first S
    qubit; per-round detection grows with the angle."""
    u = compute_uhlmann(inst).matrix
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    turned = linalg.apply_to_vector(rot, u, [0], inst.s_qubits)
    return lambda i: turned


# -- protocol ------------------------------------------------------------------


def round_accept_probability(inst: UhlmannInstance, mat: np.ndarray) -> float:
    """Probability that |D><D| accepts (Id x mat)|C>."""
    dim_s = 2 ** inst.s_qubits
    mapped = (inst.c_vector().reshape(-1, dim_s) @ mat.T).reshape(-1)
    return float(abs(np.vdot(inst.d_vector(), mapped)) ** 2)


def _target_layout(target: QuantumState, s_qubits: int) -> None:
    if "T" not in target.layout.names:
        raise ConfigError("target state needs a register named T")
    if target.layout.size_of("T") != s_qubits:
        raise DimensionMismatchError("target register must match S in size")


def apply_rule_to_target(target: QuantumState, mat: np.ndarray) -> QuantumState:
    return apply_unitary(target, UnitaryOp(mat, ("T",)))


@dataclass(frozen=True)
class UhlmannRunResult:
    outcome: str                      # "accept" | "abort"
    output: Optional[QuantumState]    # the returned target, on accept


def run_uhlmann_protocol(inst: UhlmannInstance, prover: ProverRule,
                         target: QuantumState, rng) -> UhlmannRunResult:
    """One seeded execution of the gamma-round functionality."""
    _target_layout(target, inst.s_qubits)
    gamma = inst.gamma
    star = int(rng.integers(1, gamma + 1))
    out = target
    for i in range(1, gamma + 1):
        mat = np.asarray(prover(i), dtype=complex)
        if mat.shape != (2 ** inst.s_qubits,) * 2:
            raise DimensionMismatchError("prover must act on the shipped register")
        if i == star:
            out = apply_rule_to_target(out, mat)
            continue
        p = round_accept_probability(inst, mat)
        if rng.random() >= p:
            return UhlmannRunResult("abort", None)
    return UhlmannRunResult("accept", out)


def canonical_target(inst: UhlmannInstance) -> PureState:
    """|C> laid out on (Ref, T): the verifier keeps Ref and delegates T."""
    lay = RegisterLayout.of(("Ref", inst.r_qubits), ("T", inst.s_qubits))
    return PureState(inst.c_vector(), lay)


def expected_output(inst: UhlmannInstance) -> PureState:
    """(Id x U)|C> = |D> on the (Ref, T) layout."""
    lay = RegisterLayout.of(("Ref", inst.r_qubits), ("T", inst.s_qubits))
    return PureState(inst.d_vector(), lay)


@dataclass
class SoundnessRecord:
    acceptance: float
    trace_distance: Optional[float]
    bound: float
    per_round_accept: tuple[float, ...]


def soundness_check(inst: UhlmannInstance, prover: ProverRule) -> SoundnessRecord:
    """Exact acceptance and conditioned output distance; the 1/delta bound
    applies once acceptance reaches 1/2.

    The conditioned output is the average over hidden-round positions of the
    final target state, weighted by each position's survival probability.
    """
    from qpzk.core.metrics import trace_distance

    gamma = inst.gamma
    per_round = [round_accept_probability(inst, np.asarray(prover(i), dtype=complex))
                 for i in range(1, gamma + 1)]
    target = canonical_target(inst)
    weights = []
    outputs = []
    for star in range(1, gamma + 1):
        surv = 1.0
        for i in range(1, gamma + 1):
            if i != star:
                surv *= per_round[i - 1]
        weights.append(surv)
        outputs.append(apply_rule_to_target(target, np.asarray(prover(star), dtype=complex)))
    acceptance = float(np.mean(weights))

    bound = 1.0 / inst.delta
    if acceptance < 0.5 or sum(weights) <= 0:
        return SoundnessRecord(acceptance, None, bound, tuple(per_round))
    total = sum(weights)
    avg = sum(w * o.density() for w, o in zip(weights, outputs)) / total
    sigma = MixedState.computed(avg, target.layout)
    dist = trace_distance(sigma, expected_output(inst).relabel(target.layout))
    return SoundnessRecord(acceptance, dist, bound, tuple(per_round))


# -- zero-knowledge simulation ---------------------------------------------------


class UOracle:
    """Single-use handle on the matching unitary; a second query is a hard
    failure rather than a silent extra power."""

    def __init__(self, inst: UhlmannInstance):
        self._matrix = compute_uhlmann(inst).matrix
        self.calls = 0

    def apply(self, state: QuantumState) -> QuantumState:
        """The matching unitary on the target register T of state."""
        if self.calls:
            raise OracleBudgetError("matching-unitary oracle budget exhausted")
        self.calls += 1
        return apply_unitary(state, UnitaryOp(self._matrix, ("T",)))


def zk_simulate_uhlmann(inst: UhlmannInstance, verifier_input: QuantumState,
                        oracle: Optional[UOracle] = None) -> QuantumState:
    """Reproduce a corrupted verifier's view with one oracle query.

    The verifier only ever sees its returned target: every test round runs
    between the functionality and the honest prover, whose pass probability
    is |<D|(Id x U)|C>|^2 = 1 by the definition of U. So the simulator
    spends its single query on the verifier's target register and hands the
    result back.
    """
    _target_layout(verifier_input, inst.s_qubits)
    oracle = oracle or UOracle(inst)
    return oracle.apply(verifier_input)


def real_verifier_output(inst: UhlmannInstance,
                         verifier_input: QuantumState) -> QuantumState:
    """Ideal-world output against the honest prover: the matching unitary
    lands on the target register and the tests never abort."""
    _target_layout(verifier_input, inst.s_qubits)
    u = compute_uhlmann(inst).matrix
    return apply_unitary(verifier_input, UnitaryOp(u, ("T",)))


# -- instances and persistence -----------------------------------------------------


def instance_from_rotation(c_unitary: np.ndarray, s_rotation: np.ndarray,
                           r_qubits: int, s_qubits: int,
                           delta: float = DEFAULT_DELTA) -> UhlmannInstance:
    """Instance with |D> = (Id x V)|C>, which shares the R reduction by
    construction."""
    d = np.kron(np.eye(2 ** r_qubits, dtype=complex), s_rotation) @ c_unitary
    return UhlmannInstance(c_unitary, d, r_qubits, s_qubits, delta)


def bell_flip_instance(delta: float = DEFAULT_DELTA) -> UhlmannInstance:
    """|C> a Bell pair, |D> the Bell pair with X on the kept-out half; the
    matching unitary is X up to phase."""
    from qpzk.core.operators import CNOT, H, X

    bell_prep = CNOT @ np.kron(H, np.eye(2, dtype=complex))
    return instance_from_rotation(bell_prep, X, 1, 1, delta)


def random_instance(r_qubits: int, s_qubits: int, rng,
                    delta: float = DEFAULT_DELTA) -> UhlmannInstance:
    """Random preparation and S-rotation; resamples until the R reduction is
    comfortably invertible."""
    from qpzk.core.sampling import random_unitary

    dim = 2 ** (r_qubits + s_qubits)
    for _ in range(64):
        c = random_unitary(dim, rng)
        x = c[:, 0].reshape(2 ** r_qubits, 2 ** s_qubits)
        if np.linalg.eigvalsh(x @ x.conj().T).min() > 1e-4:
            v = random_unitary(2 ** s_qubits, rng)
            return instance_from_rotation(c, v, r_qubits, s_qubits, delta)
    raise ConfigError("could not sample an invertible instance")


def instance_to_json(inst: UhlmannInstance) -> dict:
    return {
        "c_unitary": complex_matrix_to_json(inst.c_unitary),
        "d_unitary": complex_matrix_to_json(inst.d_unitary),
        "r_qubits": inst.r_qubits,
        "s_qubits": inst.s_qubits,
        "delta": inst.delta,
    }


def instance_from_json(data: dict) -> UhlmannInstance:
    c, d = (read_field(data, name, complex_matrix_from_json)
            for name in ("c_unitary", "d_unitary"))
    r, s = (read_field(data, name, read_int) for name in ("r_qubits", "s_qubits"))
    try:
        return UhlmannInstance(c, d, r, s, read_field(data, "delta", read_float, DEFAULT_DELTA))
    except (RegisterError, StateValidationError, DimensionMismatchError) as exc:
        raise ConfigError(f"invalid instance file: {exc}") from exc


def save_instance(inst: UhlmannInstance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_json(inst), fh, indent=1)


def load_instance(path) -> UhlmannInstance:
    return instance_from_json(read_json(path))
