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

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from qpzk.core import linalg
from qpzk.core.operators import P1
from qpzk.core.registers import RegisterLayout, qubit_cap
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
    read_json,
)


@dataclass(frozen=True)
class PqmaParams:
    prover_copies: int
    verifier_copies: int
    instance_qubits: int
    joint_mode: str = "product"

    def __post_init__(self):
        if not 0 < self.verifier_copies < self.prover_copies:
            raise ConfigError("need 0 < verifier copies < prover copies")
        if self.instance_qubits < 1:
            raise ConfigError("instance needs at least one qubit")
        if self.joint_mode not in ("product", "entangled"):
            raise ConfigError("joint_mode must be 'product' or 'entangled'")


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
        nv = self.witness.n_qubits + self.psi.n_qubits
        v = np.asarray(self.verifier_unitary, dtype=complex)
        object.__setattr__(self, "verifier_unitary", v)
        if v.shape != (2 ** nv, 2 ** nv):
            raise DimensionMismatchError("verifier unitary must act on witness+instance")
        if not linalg.is_unitary(v):
            raise StateValidationError("verifier unitary is not unitary")
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

    def accept_operator(self) -> np.ndarray:
        """V^dag (|1><1| x Id) V on (witness, instance)."""
        n = self.witness_qubits + self.psi.n_qubits
        pi1 = linalg.embed(P1, [0], n)
        v = self.verifier_unitary
        return v.conj().T @ pi1 @ v

    def final_acceptance(self, witness: QuantumState, instance: QuantumState) -> float:
        joint = np.kron(witness.density(), instance.density())
        return float(np.trace(self.accept_operator() @ joint).real)

    def honest_acceptance(self) -> float:
        return self.final_acceptance(self.witness, self.psi)


@dataclass(frozen=True)
class PqmaProverInput:
    """Prover-side copies: one repeated (witness, instance) pair state, a
    per-copy list of pair states, or one joint entangled state."""

    mode: str
    pair: Optional[MixedState] = None             # symmetric product
    pairs: Optional[tuple[MixedState, ...]] = None  # per-copy product
    joint: Optional[QuantumState] = None          # entangled

    @classmethod
    def symmetric(cls, witness: QuantumState, instance: QuantumState) -> "PqmaProverInput":
        pair = tensor(
            witness.to_mixed().relabel(RegisterLayout.single("B", witness.n_qubits)),
            instance.to_mixed().relabel(RegisterLayout.single("A", instance.n_qubits)),
        )
        return cls("product", pair=pair)

    @classmethod
    def per_copy(cls, pairs: Sequence[MixedState]) -> "PqmaProverInput":
        return cls("product", pairs=tuple(pairs))

    @classmethod
    def entangled(cls, joint: QuantumState) -> "PqmaProverInput":
        return cls("entangled", joint=joint)

    def pair_for(self, index: int) -> MixedState:
        if self.pairs is not None:
            return self.pairs[index]
        if self.pair is None:
            raise ConfigError("product-mode input missing pair state")
        return self.pair


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


def _sample_distinct(rng, n: int, k: int) -> list[int]:
    """k distinct indices from range(n); safe for astronomically large n."""
    seen: set[int] = set()
    while len(seen) < k:
        seen.add(int(rng.integers(n)))
    return sorted(seen, key=lambda _: rng.random())


def run_pqma(params: PqmaParams, inst: PqmaInstance, prover_input: PqmaProverInput,
             rng) -> str:
    """One seeded functionality execution: 'accept', 'reject' or 'abort'."""
    p, q = params.prover_copies, params.verifier_copies
    tested = _sample_distinct(rng, p, q + 1)
    subset, star = tested[:q], tested[q]
    if params.joint_mode == "product":
        if prover_input.mode != "product":
            raise ConfigError("product-mode run needs product-mode input")
        symmetric = prover_input.pairs is None
        p_cached = (_swap_accept_probability(inst, prover_input.pair_for(0))
                    if symmetric else None)
        for s in subset:
            p_acc = p_cached if symmetric else \
                _swap_accept_probability(inst, prover_input.pair_for(s))
            if rng.random() >= p_acc:
                return "abort"
        pair = prover_input.pair_for(star)
        final = float(np.trace(inst.accept_operator() @ pair.matrix).real)
        return "accept" if rng.random() < final else "reject"
    return _run_entangled(params, inst, prover_input, subset, star, rng)


def _run_entangled(params, inst, prover_input, subset, star, rng) -> str:
    joint = prover_input.joint
    if joint is None:
        raise ConfigError("entangled-mode run needs a joint state")
    nw, ni = inst.witness_qubits, inst.psi.n_qubits
    p = params.prover_copies
    needed = p * (nw + ni)
    if joint.n_qubits != needed:
        raise DimensionMismatchError(f"joint state must hold {needed} qubits")
    if needed + ni > qubit_cap():
        raise ConfigError("entangled mode exceeds the qubit cap")
    regs = []
    for i in range(p):
        regs.extend([(f"B{i}", nw), (f"A{i}", ni)])
    state: QuantumState = joint.relabel(RegisterLayout.of(*regs))
    for s in subset:
        fresh = inst.psi.relabel(RegisterLayout.single("Fresh", ni))
        work = tensor(state.to_mixed(), fresh.to_mixed())
        outcomes = symmetric_projector_outcomes(work, f"A{s}", "Fresh")
        if rng.random() >= outcomes[0].probability:
            return "abort"
        state = partial_trace(outcomes[0].post, "Fresh")
    op = inst.accept_operator()
    targets = state.layout.qubits_of_all([f"B{star}", f"A{star}"])
    projected = linalg.apply_to_matrix(op, state.to_mixed().matrix,
                                       targets, state.n_qubits)
    final = float(projected.trace().real)
    return "accept" if rng.random() < final else "reject"


def exact_acceptance_product(params: PqmaParams, inst: PqmaInstance,
                             prover_input: PqmaProverInput) -> float:
    """Exact overall acceptance for product-mode inputs.

    Symmetric inputs factorize; per-copy lists are averaged over every
    (subset, starred copy) choice, which stays cheap at desk scale.
    """
    p, q = params.prover_copies, params.verifier_copies
    op = inst.accept_operator()
    if prover_input.pairs is None:
        pair = prover_input.pair_for(0)
        swap_p = _swap_accept_probability(inst, pair)
        final = float(np.trace(op @ pair.matrix).real)
        return swap_p ** q * final
    if p > 8:
        raise ConfigError("per-copy exact acceptance is limited to p <= 8")
    swap_ps = [_swap_accept_probability(inst, prover_input.pair_for(s)) for s in range(p)]
    finals = [float(np.trace(op @ prover_input.pair_for(s).matrix).real) for s in range(p)]
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


@dataclass(frozen=True)
class ViewBranch:
    """One leaf of the verifier-view ensemble."""

    outcome: int           # functionality output bit as seen by the verifier
    probability: float
    residual: Optional[MixedState]


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


def real_verifier_view(params: PqmaParams, inst: PqmaInstance,
                       verifier_input: QuantumState) -> list[ViewBranch]:
    """Exact ideal-world view ensemble with the honest prover.

    Every tested prover copy is a perfect instance copy, so each verifier
    copy meets an independent SWAP test against a fresh pure instance state;
    the final projection happens on prover-side registers and contributes
    only the acceptance split.
    """
    branches: list[ViewBranch] = []
    state = verifier_input
    reach = 1.0
    for j in range(params.verifier_copies):
        (p_pass, passed), (p_fail, failed) = _swap_branches(state, f"V{j}", inst.psi)
        if p_fail > 1e-15:
            branches.append(ViewBranch(0, reach * p_fail, failed))
        if p_pass <= 1e-15:
            return branches
        reach *= p_pass
        state = passed
    final = inst.honest_acceptance()
    if final < 1.0 - 1e-15:
        branches.append(ViewBranch(0, reach * (1.0 - final), state.to_mixed()))
    branches.append(ViewBranch(1, reach * final, state.to_mixed()))
    return branches


def hv_simulate_pqma(params: PqmaParams, inst: PqmaInstance,
                     verifier_input: QuantumState,
                     simulator_copies: Optional[int] = None) -> list[ViewBranch]:
    """Simulator view ensemble: extract the verifier input, SWAP-test each
    copy against the simulator's own fresh instance copies, program output 0
    on any failure and 1 otherwise. The witness is never consulted."""
    from qpzk.crypto.ideal import IdealSession, identity_functionality

    budget = simulator_copies if simulator_copies is not None else params.verifier_copies
    if budget < params.verifier_copies:
        raise ConfigError("simulator copy budget exhausted")
    session = IdealSession(identity_functionality(1, 1), corrupted="B")
    session.extract(verifier_input)

    branches: list[ViewBranch] = []
    state = verifier_input
    reach = 1.0
    for j in range(params.verifier_copies):
        (p_pass, passed), (p_fail, failed) = _swap_branches(state, f"V{j}", inst.psi)
        if p_fail > 1e-15:
            branches.append(ViewBranch(0, reach * p_fail, failed))
        if p_pass <= 1e-15:
            session.program(0)
            return branches
        reach *= p_pass
        state = passed
    session.program(1)
    branches.append(ViewBranch(1, reach, state.to_mixed()))
    return branches


def view_distance(a: list[ViewBranch], b: list[ViewBranch]) -> float:
    """Total variation over outcomes plus weighted residual trace distance."""

    def collapse(branches):
        out = {}
        for br in branches:
            if br.probability <= 1e-15:
                continue
            prob, acc = out.get(br.outcome, (0.0, None))
            mat = br.residual.matrix * br.probability
            acc = mat if acc is None else acc + mat
            out[br.outcome] = (prob + br.probability, acc)
        return out

    ca, cb = collapse(a), collapse(b)
    dims = [m.shape[0] for _, m in list(ca.values()) + list(cb.values()) if m is not None]
    dim = dims[0] if dims else 1
    dist = 0.0
    for key in set(ca) | set(cb):
        _, ma = ca.get(key, (0.0, None))
        _, mb = cb.get(key, (0.0, None))
        za = ma if ma is not None else np.zeros((dim, dim), dtype=complex)
        zb = mb if mb is not None else np.zeros((dim, dim), dtype=complex)
        dist += linalg.half_trace_norm(za - zb)
    return dist


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


def bad_witness_strategy(inst: PqmaInstance, witness: QuantumState) -> CheatStrategy:
    return CheatStrategy("bad-witness", PqmaProverInput.symmetric(witness, inst.psi))


def honest_shape_strategy(inst: PqmaInstance, witness: Optional[QuantumState] = None) -> CheatStrategy:
    """Honest copies of the (possibly no-) instance with the best witness."""
    return CheatStrategy("honest-copies",
                         PqmaProverInput.symmetric(witness or inst.witness, inst.psi))


@dataclass
class CheatReport:
    strategy_results: dict
    max_empirical: float
    bound: float
    sigma: float
    verdict: str


def cheat_harness(params: PqmaParams, inst: PqmaInstance,
                  strategies: Sequence[CheatStrategy], trials: int, rng) -> CheatReport:
    """Monte-Carlo acceptance of every strategy against the closed-form
    soundness value; PASS iff the maximum stays below bound + 3 sigma, or
    VACUOUS when the bound is not informative."""
    bound = soundness_bound(params.prover_copies, params.verifier_copies,
                            params.instance_qubits)
    results = {}
    max_rate = 0.0
    for strat in strategies:
        hits = 0
        for _ in range(trials):
            if run_pqma(params, inst, strat.prover_input, rng) == "accept":
                hits += 1
        rate = hits / trials
        exact = exact_acceptance_product(params, inst, strat.prover_input) \
            if strat.prover_input.mode == "product" else None
        results[strat.name] = {"empirical": rate, "exact": exact}
        max_rate = max(max_rate, rate)
    sigma = math.sqrt(max(max_rate * (1 - max_rate), 1e-12) / trials)
    if bound > 1.0:
        verdict = "VACUOUS"
    elif max_rate <= bound + 3 * sigma:
        verdict = "PASS"
    else:
        verdict = "FAIL"
    return CheatReport(results, max_rate, bound, sigma, verdict)


def sequential_repetition_acceptance(params, inst, prover_input, reps: int, rng) -> int:
    """AND-acceptance over independent repetitions of the functionality."""
    for _ in range(reps):
        if run_pqma(params, inst, prover_input, rng) != "accept":
            return 0
    return 1


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
    from qpzk.core.operators import X

    # (witness, instance) wires; accept <=> witness == instance.
    flip_b = np.kron(X, np.eye(2, dtype=complex))
    cnot_a_to_b = np.zeros((4, 4), dtype=complex)
    cnot_a_to_b[0, 0] = cnot_a_to_b[3, 1] = cnot_a_to_b[2, 2] = cnot_a_to_b[1, 3] = 1.0
    v = cnot_a_to_b @ flip_b
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
    try:
        psi_amp = complex_vector_from_json(data["psi"])
        witness_mat = complex_matrix_from_json(data["witness"])
        v = complex_matrix_from_json(data["verifier_unitary"])
    except KeyError as exc:
        raise ConfigError(f"instance file missing field {exc}") from exc
    ni = int(np.log2(psi_amp.shape[0]))
    nw = int(np.log2(witness_mat.shape[0]))
    psi = PureState(psi_amp, RegisterLayout.single("A", ni))
    witness = MixedState(witness_mat, RegisterLayout.single("B", nw))
    return PqmaInstance(psi, witness, v, str(data.get("label", "yes")),
                        float(data.get("completeness_error", 0.0)))


def save_instance(inst: PqmaInstance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_json(inst), fh, indent=1)


def load_instance(path) -> PqmaInstance:
    return instance_from_json(read_json(path))
