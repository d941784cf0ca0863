"""The copy-testing proof protocol for pure-state promise instances.

The trusted functionality takes p (instance, witness) copy pairs from the
prover and q instance copies from the verifier, SWAP-tests a random subset S
of the prover's copies against fresh verifier copies (abort on any failure)
and finally applies the verification projector to a random untested pair.

The closed-form soundness value combines the permutation-invariance
approximation term sqrt(2 q^2 n / (p - q)) with the test-failure term 0.99^q
and the disturbance term 1/sqrt(50); it may exceed one, in which case checks
against it are vacuous.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from qpzk.core import linalg
from qpzk.core.operators import accept_projector, checked_unitary
from qpzk.core.registers import RegisterLayout
from qpzk.core.sampling import accept_bit
from qpzk.core.states import (
    MixedState,
    PureState,
    QuantumState,
    partial_trace,
    tensor,
)
from qpzk.core.swap_test import swap_test_povm, symmetric_projector_outcomes
from qpzk.errors import ConfigError, DimensionMismatchError, StateValidationError
from qpzk.serialize import (
    complex_matrix_from_json,
    complex_matrix_to_json,
    complex_vector_from_json,
    complex_vector_to_json,
    load_json,
    read_field,
    read_float,
    read_str,
    write_json,
)


@dataclass(frozen=True)
class PqmaParams:
    prover_copies: int
    verifier_copies: int

    def __post_init__(self):
        if not 0 < self.verifier_copies < self.prover_copies:
            raise ConfigError("need 0 < verifier copies < prover copies")


@dataclass(frozen=True)
class PqmaInstance:
    """Instance state, witness, and the verification unitary on (witness,
    instance) with acceptance read off the first witness qubit."""

    psi: PureState
    witness: QuantumState
    verifier_unitary: np.ndarray
    label: str = "yes"
    completeness_error: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "verifier_unitary", checked_unitary(
            self.verifier_unitary, self.witness.n_qubits + self.psi.n_qubits,
            "verifier_unitary on witness and instance"))
        if not 0 <= self.completeness_error < 1:
            raise ConfigError("completeness_error must lie in [0, 1), "
                              f"got {self.completeness_error!r}")
        if self.label not in ("yes", "no"):
            raise StateValidationError("label must be 'yes' or 'no'")
        if self.label == "yes":
            honest = self.honest_acceptance()
            if honest < 1.0 - self.completeness_error - 1e-9:
                raise StateValidationError(
                    f"honest acceptance {honest} below declared completeness"
                )

    @property
    def witness_qubits(self) -> int:
        return self.witness.n_qubits

    @functools.cached_property
    def accept_operator(self) -> np.ndarray:
        """V^dag (|1><1| x Id) V on (witness, instance), built once and
        read-only, since every trial shares it."""
        op = accept_projector(self.verifier_unitary)
        op.setflags(write=False)
        return op

    def final_acceptance(self, pair: np.ndarray) -> float:
        """Acceptance of the final projection on a (witness, instance)
        density matrix."""
        return float(np.trace(self.accept_operator @ pair).real)

    def honest_acceptance(self) -> float:
        return self.final_acceptance(np.kron(self.witness.density(), self.psi.density()))


@dataclass(frozen=True)
class PqmaProverInput:
    """Prover-side copies, exactly one of: one (witness, instance) pair
    state that every copy repeats, a pair state per copy, or one joint
    entangled state of all the copies."""

    pair: Optional[MixedState] = None
    pairs: Optional[tuple[MixedState, ...]] = None
    joint: Optional[QuantumState] = None

    def __post_init__(self):
        if sum(x is not None for x in (self.pair, self.pairs, self.joint)) != 1:
            raise ConfigError("prover input needs exactly one of pair, pairs and joint")

    @classmethod
    def symmetric(cls, witness: QuantumState, instance: QuantumState) -> "PqmaProverInput":
        pair = tensor(
            witness.to_mixed().relabel(RegisterLayout.single("B", witness.n_qubits)),
            instance.to_mixed().relabel(RegisterLayout.single("A", instance.n_qubits)),
        )
        return cls(pair=pair)


def soundness_bound(p: int, q: int, n: int) -> float:
    """Closed-form soundness value; may exceed 1 (vacuous for checking)."""
    if not q >= 1:
        raise ConfigError("need at least one verifier copy")
    if not p > q:
        raise ConfigError("need more prover copies than verifier copies")
    if n < 1:
        raise ConfigError("instance needs at least one qubit")
    return math.sqrt(2.0 * q * q * n / (p - q)) + 0.99 ** q + 1.0 / math.sqrt(50.0)


def _swap_accept_probability(inst: PqmaInstance, pair: MixedState) -> float:
    """SWAP-test acceptance of the pair's instance side against a fresh psi."""
    a = partial_trace(pair, "B") if "B" in pair.layout.names else pair
    return swap_test_povm(a, inst.psi.relabel(a.layout))


def _runner(params: PqmaParams, inst: PqmaInstance, prover_input: PqmaProverInput):
    """A function of rng that makes one execution's draws: the q + 1 tested
    and starred copies in one draw, then the SWAP tests and the final
    projection. An entangled input is evolved copy by copy; for a product
    input the per-copy acceptances are computed here, once, and the q SWAP
    tests are one sized draw."""
    p, q = params.prover_copies, params.verifier_copies
    if prover_input.joint is not None:
        return functools.partial(_run_entangled, params, inst, prover_input.joint)
    swap_of, final_of = _copy_acceptances(params, inst, prover_input)

    def run(rng) -> str:
        tested = rng.choice(p, q + 1, replace=False)
        if (rng.random(q) >= swap_of(tested[:q])).any():
            return "abort"
        return "accept" if accept_bit(final_of(tested[q]), rng) else "reject"
    return run


def _copy_acceptances(params: PqmaParams, inst: PqmaInstance,
                      prover_input: PqmaProverInput):
    """(swap_of, final_of) of a product input: the SWAP-test acceptances of
    a list of copies, as an array, and the final acceptance of one copy,
    computed once per pair state (one pair that every copy shares for a
    symmetric input)."""
    def both(pair: MixedState) -> tuple[float, float]:
        return _swap_accept_probability(inst, pair), inst.final_acceptance(pair.matrix)

    if prover_input.pair is not None:
        swap, final = both(prover_input.pair)
        return (lambda copies: np.full(len(copies), swap)), (lambda s: final)
    pairs = prover_input.pairs
    if pairs is None:
        raise ConfigError("per-copy acceptances need a product input, not a joint state")
    if len(pairs) != params.prover_copies:
        raise ConfigError(f"per-copy input holds {len(pairs)} pair states "
                          f"for {params.prover_copies} prover copies")
    swaps, finals = zip(*map(both, pairs))
    return np.array(swaps).__getitem__, finals.__getitem__


def _run_entangled(params: PqmaParams, inst: PqmaInstance, joint: QuantumState, rng) -> str:
    nw, ni = inst.witness_qubits, inst.psi.n_qubits
    p, q = params.prover_copies, params.verifier_copies
    needed = p * (nw + ni)
    if joint.n_qubits != needed:
        raise DimensionMismatchError(f"joint state must hold {needed} qubits")
    regs = []
    for i in range(p):
        regs.extend([(f"B{i}", nw), (f"A{i}", ni)])
    # Each SWAP test works beside a fresh instance copy, so that register
    # is laid out too and held to the qubit cap.
    lay = RegisterLayout.of(*regs, ("Fresh", ni))
    state: QuantumState = joint.relabel(lay.drop(["Fresh"]))
    tested = rng.choice(p, q + 1, replace=False)
    for s in tested[:q]:
        (p_pass, passed), _ = _swap_branches(state, f"A{s}", inst.psi)
        if rng.random() >= p_pass:
            return "abort"
        state = passed
    targets = state.layout.qubits_of_all([f"B{tested[q]}", f"A{tested[q]}"])
    projected = linalg.apply_to_matrix(inst.accept_operator, state.to_mixed().matrix,
                                       targets, state.n_qubits)
    final = float(projected.trace().real)
    return "accept" if accept_bit(final, rng) else "reject"


def exact_acceptance_product(params: PqmaParams, inst: PqmaInstance,
                             prover_input: PqmaProverInput) -> float:
    """Exact overall acceptance for product inputs.

    Symmetric inputs factorize; per-copy lists are averaged over every
    (subset, starred copy) choice, which stays cheap at desk scale.
    """
    p, q = params.prover_copies, params.verifier_copies
    if prover_input.pairs is not None and p > 8:
        raise ConfigError("per-copy exact acceptance is limited to p <= 8")
    swap_of, final_of = _copy_acceptances(params, inst, prover_input)
    if prover_input.pairs is None:
        return float(swap_of([0])[0]) ** q * final_of(0)
    swap_ps = swap_of(range(p)).tolist()
    finals = [final_of(s) for s in range(p)]
    total, count = 0.0, 0
    for subset in itertools.combinations(range(p), q):
        rest = [s for s in range(p) if s not in subset]
        for star in rest:
            prod = 1.0
            for s in subset:
                prod *= swap_ps[s]
            total += prod * finals[star]
            count += 1
    return total / count


# -- honest-verifier simulation ----------------------------------------------


def _swap_branches(state: QuantumState, copy_name: str, psi: PureState):
    """Symmetric/antisymmetric branch of testing one verifier copy against a
    fresh instance copy; the fresh register is traced back out."""
    fresh = psi.relabel(RegisterLayout.single("Fresh", psi.n_qubits))
    work = tensor(state.to_mixed(), fresh.to_mixed())
    outcomes = symmetric_projector_outcomes(work, copy_name, "Fresh")
    branches = []
    for o in outcomes:
        post = partial_trace(o.post, "Fresh") if o.post is not None else None
        branches.append((o.probability, post))
    return branches


def _swap_walk(params: PqmaParams, inst: PqmaInstance, verifier_input: QuantumState):
    """(failures, (reach, state)): the (probability, post-state) of each
    verifier copy that fails its SWAP test, kept when the failure leaves a
    post-state, and the probability and state once every copy has passed.
    A copy passes with probability (1 + <psi|rho|psi>)/2 >= 1/2 whatever its
    state rho, so the walk always reaches the end."""
    failures = []
    state = verifier_input
    reach = 1.0
    for j in range(params.verifier_copies):
        (p_pass, passed), (p_fail, failed) = _swap_branches(state, f"V{j}", inst.psi)
        if failed is not None:
            failures.append((reach * p_fail, failed))
        reach *= p_pass
        state = passed
    return failures, (reach, state.to_mixed())


def _view(branches: dict) -> dict:
    """{output bit: (p, [conditional state])} of each output bit's
    (probability, state) branches, which sum into one block; a bit without
    branches is left out."""
    view = {}
    for bit, parts in branches.items():
        if parts:
            p = sum(w for w, _ in parts)
            mix = sum(w * state.matrix for w, state in parts) / p
            view[bit] = (p, [MixedState.computed(mix, parts[0][1].layout)])
    return view


def real_verifier_view(params: PqmaParams, inst: PqmaInstance,
                       verifier_input: QuantumState) -> dict:
    """Exact ideal-world view with the honest prover.

    Every tested prover copy is a perfect instance copy, so each verifier
    copy meets an independent SWAP test against a fresh pure instance state;
    the final projection happens on prover-side registers and contributes
    only the acceptance split.
    """
    failures, (reach, state) = _swap_walk(params, inst, verifier_input)
    final = inst.honest_acceptance()
    if final < 1.0 - 1e-15:
        failures.append((reach * (1.0 - final), state))
    return _view({0: failures, 1: [(reach * final, state)] if final > 1e-15 else []})


def hv_simulate_pqma(params: PqmaParams, inst: PqmaInstance,
                     verifier_input: QuantumState,
                     simulator_copies: Optional[int] = None) -> dict:
    """Simulator view: SWAP-test each verifier copy against the simulator's
    own fresh instance copies, with output 0 on any failure and 1
    otherwise. The witness is never consulted."""
    budget = simulator_copies if simulator_copies is not None else params.verifier_copies
    if budget < params.verifier_copies:
        raise ConfigError("simulator copy budget exhausted")
    failures, passed = _swap_walk(params, inst, verifier_input)
    return _view({0: failures, 1: [passed]})


# -- adversarial harness -------------------------------------------------------


@dataclass(frozen=True)
class CheatStrategy:
    name: str
    prover_input: PqmaProverInput


def orthogonal_copy_strategy(inst: PqmaInstance) -> CheatStrategy:
    """Prover swaps every instance copy for an orthogonal state."""
    psi = inst.psi.amplitudes
    dim = psi.shape[0]
    base = linalg.basis_vector(0, dim)
    if abs(np.vdot(psi, base)) > 1 - 1e-9:
        base = linalg.basis_vector(1, dim)
    perp = base - np.vdot(psi, base) * psi
    perp = perp / np.linalg.norm(perp)
    ortho = PureState(perp, inst.psi.layout)
    return CheatStrategy("orthogonal-copies",
                         PqmaProverInput.symmetric(inst.witness, ortho))


def honest_shape_strategy(inst: PqmaInstance, witness: Optional[QuantumState] = None) -> CheatStrategy:
    """Honest copies of the (possibly no-) instance with the best witness."""
    return CheatStrategy("honest-copies",
                         PqmaProverInput.symmetric(witness or inst.witness, inst.psi))


@dataclass
class CheatReport:
    max_empirical: float
    bound: float
    sigma: float


def cheat_harness(params: PqmaParams, inst: PqmaInstance,
                  strategies: Sequence[CheatStrategy], trials: int, rng) -> CheatReport:
    """Largest Monte-Carlo acceptance over the strategies, its sampling
    sigma, and the closed-form soundness value it is held against. Each
    strategy's accepted count is one binomial draw at its exact acceptance,
    the distribution of `trials` executions, so the strategies are the
    product inputs that `exact_acceptance_product` takes."""
    bound = soundness_bound(params.prover_copies, params.verifier_copies,
                            inst.psi.n_qubits)
    max_rate = 0.0
    for strat in strategies:
        exact = exact_acceptance_product(params, inst, strat.prover_input)
        max_rate = max(max_rate, int(rng.binomial(trials, min(exact, 1.0))) / trials)
    sigma = math.sqrt(max(max_rate * (1 - max_rate), 1e-12) / trials)
    return CheatReport(max_rate, bound, sigma)


# -- built-in instances and persistence ---------------------------------------


def instance_check_family(label: str = "yes") -> PqmaInstance:
    """Single-qubit promise problem: yes state |1>, no state |0>; the
    verifier swaps witness and instance so acceptance reads the instance bit
    and the witness is ignored."""
    from qpzk.core.operators import SWAP2

    lay = RegisterLayout.single("A", 1)
    psi = PureState.from_bits(lay, "1" if label == "yes" else "0")
    witness = PureState.from_bits(RegisterLayout.single("B", 1), "1")
    return PqmaInstance(psi, witness, SWAP2, label=label)


def witness_match_family() -> PqmaInstance:
    """Yes instance |1> whose verifier accepts iff the witness matches the
    instance in the computational basis; bad witnesses reject exactly."""
    from qpzk.core.operators import CNOT_REVERSED, X

    # (witness, instance) wires; accept <=> witness == instance.
    v = CNOT_REVERSED @ np.kron(X, np.eye(2, dtype=complex))
    psi = PureState.from_bits(RegisterLayout.single("A", 1), "1")
    witness = PureState.from_bits(RegisterLayout.single("B", 1), "1")
    return PqmaInstance(psi, witness, v, label="yes")


def instance_to_json(inst: PqmaInstance) -> dict:
    return {
        "psi": complex_vector_to_json(inst.psi.amplitudes),
        "witness": complex_matrix_to_json(inst.witness.density()),
        "verifier_unitary": complex_matrix_to_json(inst.verifier_unitary),
        "label": inst.label,
        "completeness_error": inst.completeness_error,
    }


def instance_from_json(data: dict) -> PqmaInstance:
    psi_amp = read_field(data, "psi", complex_vector_from_json)
    witness_mat, v = (read_field(data, name, complex_matrix_from_json)
                      for name in ("witness", "verifier_unitary"))
    psi = PureState(psi_amp, RegisterLayout.single("A", len(psi_amp).bit_length() - 1))
    witness = MixedState(witness_mat, RegisterLayout.single("B", len(witness_mat).bit_length() - 1))
    return PqmaInstance(psi, witness, v, read_field(data, "label", read_str, "yes"),
                        read_field(data, "completeness_error", read_float, 0.0))


def save_instance(inst: PqmaInstance, path) -> None:
    write_json(instance_to_json(inst), path)


def load_instance(path) -> PqmaInstance:
    return load_json(path, instance_from_json, "instance")
