"""Principal-angle closed form vs the alternating-ascent prover oracle."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpzk.core import PureState, RegisterLayout, linalg, random_pure_state, random_unitary, rng_from
from qpzk.core.operators import P0, P1, X
from qpzk.core.sampling import random_amplitudes, random_projector
from qpzk.errors import ConfigError, DimensionMismatchError
from qpzk.compilers.collapse import CollapsedProtocol
from qpzk.compilers.examples import partial_coupler_base, rotated_copier_base
from qpzk.compilers.public_coin import make_public_coin
from qpzk.optimize import (
    DEFAULT_TOL,
    AscentProblem,
    Branch,
    _align,
    _assemble,
    alternating_ascent,
    brute_force_prover_value,
    optimal_three_message_value,
    protocol_ascent_problem,
    three_message_protocol,
)
from qpzk.protocol import InteractiveProtocol, Strategy, bind, run_protocol

W1 = RegisterLayout.single("W", 1)


class TestClosedForm:
    def test_identical_subspaces_give_one(self):
        # V1 = Id, V2 = X on W: accepting subspace becomes |0>_W x Id, and
        # psi_v = |0> makes the reachable subspace identical to it.
        v1 = np.eye(4, dtype=complex)
        v2 = np.kron(X, np.eye(2))
        psi_v = PureState.from_bits(W1, "0")
        assert optimal_three_message_value(v1, v2, psi_v, 1) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vs_plus_overlap(self):
        # Accepting |0>_W against reachable |+>_W x Id: squared overlap 1/2.
        v1 = np.eye(4, dtype=complex)
        v2 = np.kron(X, np.eye(2))
        plus = PureState(np.array([1, 1]) / np.sqrt(2), W1)
        assert optimal_three_message_value(v1, v2, plus, 1) == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_subspaces_give_zero(self):
        v = np.eye(4, dtype=complex)
        psi_v = PureState.from_bits(W1, "0")
        assert optimal_three_message_value(v, v, psi_v, 1) == pytest.approx(0.0, abs=1e-12)


class TestAscentProblem:
    @pytest.mark.parametrize("branches", [
        (Branch(1.0, (("U", (0,)), ("U", (1,)))),),
        (Branch(0.5, (("U", (0,)),)), Branch(0.5, (("U", (0,)),))),
    ], ids=["repeated-within-a-branch", "shared-by-two-branches"])
    def test_slot_in_two_steps_rejected(self, branches):
        with pytest.raises(ConfigError, match="more than one step"):
            AscentProblem(2, branches)

    @pytest.mark.parametrize("fixed_init", [np.ones(3), np.ones(8), np.ones((2, 2))],
                             ids=["not-a-power-of-two", "more-than-n-qubits", "not-a-vector"])
    def test_fixed_start_of_wrong_shape_rejected(self, fixed_init):
        with pytest.raises(DimensionMismatchError, match="leading qubits"):
            AscentProblem(2, (), fixed_init.astype(complex))


class TestBruteForce:
    def test_unconditional_acceptance_found_immediately(self):
        v1 = np.kron(X, np.eye(2))
        prot = InteractiveProtocol(
            PureState.from_bits(W1, "0"), 1, 1, [v1], [np.eye(4)]
        )
        val = brute_force_prover_value(prot, rng_from(1), iters=1, restarts=1)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_honest_value_is_a_lower_bound(self):
        rng = rng_from(2)
        for seed in range(5):
            gen = rng_from(80, seed)
            prot = InteractiveProtocol(
                PureState.from_bits(W1, "0"), 1, 1,
                [random_unitary(4, gen), random_unitary(4, gen)],
                [random_unitary(4, gen), random_unitary(4, gen)],
            )
            honest = run_protocol(prot, prot.honest)
            val = brute_force_prover_value(prot, rng, restarts=2, iters=40)
            assert val >= honest - 1e-9

    def test_restart_monotonicity(self):
        gen = rng_from(81)
        prot = three_message_protocol(random_unitary(4, gen), random_unitary(4, gen),
                                      PureState.from_bits(W1, "0"), 1)
        few = brute_force_prover_value(prot, rng_from(82), restarts=1, iters=60)
        more = brute_force_prover_value(prot, rng_from(82), restarts=6, iters=60)
        assert more >= few - 1e-12

    def test_rejects_many_rounds(self):
        v = np.eye(4, dtype=complex)
        prot = InteractiveProtocol(
            PureState.from_bits(W1, "0"), 1, 1, [v] * 4, [v] * 4
        )
        with pytest.raises(ConfigError):
            brute_force_prover_value(prot, rng_from(0))


class TestCrossCheck:
    """The committed-state game value equals the principal-angle formula; an
    unrestricted final move can only do better."""

    @pytest.mark.parametrize("w_qubits,m_qubits", [(1, 1), (2, 1)])
    def test_frozen_final_move_matches_closed_form(self, w_qubits, m_qubits):
        dim = 2 ** (w_qubits + m_qubits)
        for seed in range(8):
            gen = rng_from(90, w_qubits, seed)
            v1, v2 = random_unitary(dim, gen), random_unitary(dim, gen)
            psi_v = random_pure_state(RegisterLayout.single("W", w_qubits), gen)
            closed = optimal_three_message_value(v1, v2, psi_v, m_qubits)
            prot = three_message_protocol(v1, v2, psi_v, m_qubits)
            oracle = brute_force_prover_value(
                prot, rng_from(91, w_qubits, seed), restarts=6, iters=120,
                final_move_frozen=True,
            )
            assert oracle == pytest.approx(closed, abs=1e-6)

    def test_unrestricted_prover_dominates_closed_form(self):
        exceeded = False
        for seed in range(4):
            gen = rng_from(92, seed)
            v1, v2 = random_unitary(4, gen), random_unitary(4, gen)
            psi_v = PureState.from_bits(W1, "0")
            closed = optimal_three_message_value(v1, v2, psi_v, 1)
            prot = three_message_protocol(v1, v2, psi_v, 1)
            free = brute_force_prover_value(prot, rng_from(93, seed), restarts=6, iters=120)
            assert free >= closed - 1e-6
            if free > closed + 1e-3:
                exceeded = True
        # The final prover move is genuinely worth something on generic
        # single-qubit instances; this pins the documented convention.
        assert exceeded


class TestOracleMatchesRunner:
    """At the honest prover, each ascent problem's step lists give the
    acceptance that the exact runner computes."""

    @pytest.mark.parametrize("base", [rotated_copier_base(0.7),
                                      partial_coupler_base(0.5, 0.7)],
                             ids=["rotated-copier", "partial-coupler"])
    def test_honest_value_matches_exact(self, base):
        assert protocol_ascent_problem(base).value(base.honest) \
            == pytest.approx(run_protocol(base), abs=1e-12)

        pc = make_public_coin(base)
        honest = pc.honest_strategy()
        assert pc.problem.value(honest) \
            == pytest.approx(pc.acceptance(honest), abs=1e-12)

        col = CollapsedProtocol(base)
        honest = col.honest_strategy()
        assert col.ascent_problem(2).value(honest) \
            == pytest.approx(col.acceptance(honest), abs=1e-12)


class TestHonestWarmStart:
    """The ascents take `protocol.honest`, whose slots are gate lists, as a
    warm start: the ascent makes each slot dense on the slot's wires (with
    the ancilla) and drops a frozen slot."""

    @pytest.mark.parametrize("ancilla_qubits", [0, 1])
    @pytest.mark.parametrize("frozen", [False, True], ids=["free", "final-move-frozen"])
    @pytest.mark.parametrize("base", [rotated_copier_base(0.7), partial_coupler_base(0.5, 0.7)],
                             ids=["rotated-copier", "partial-coupler"])
    def test_value_at_least_the_honest_one(self, base, ancilla_qubits, frozen):
        slots = dict(base.honest.slots)
        if frozen:
            slots[f"P{base.rounds}"] = ()  # idle in the final round
        honest = run_protocol(base, Strategy(slots))
        if not frozen:
            assert honest == run_protocol(base)
        problem = protocol_ascent_problem(base, ancilla_qubits,
                                          (f"P{base.rounds}",) if frozen else ())
        start = alternating_ascent(problem, rng_from(97), iters=0, restarts=0,
                                   warm_starts=[base.honest])
        assert start.value == pytest.approx(honest, abs=1e-12)
        res = alternating_ascent(problem, rng_from(97), iters=3, restarts=1,
                                 warm_starts=[base.honest])
        assert res.value >= honest - 1e-12
        assert brute_force_prover_value(base, rng_from(98), iters=3, restarts=1,
                                        ancilla_qubits=ancilla_qubits,
                                        final_move_frozen=frozen) >= honest - 1e-12


class TestEvaluator:
    """The evaluator names what is wrong with a strategy that does not fit
    its problem."""

    @pytest.mark.parametrize("free", [None, np.ones(4) / 2, np.ones((2, 2)) / 2],
                             ids=["missing", "too-small", "not-a-vector"])
    def test_free_part_of_the_wrong_size_rejected(self, free):
        problem = make_public_coin(rotated_copier_base(0.7)).problem
        slots = {"U0": np.eye(4, dtype=complex), "U1": np.eye(4, dtype=complex)}
        with pytest.raises(DimensionMismatchError, match="free part has shape"):
            problem.value(Strategy(slots, free))

    def test_free_part_of_an_all_fixed_start_rejected(self):
        base = rotated_copier_base(0.7)
        slots = {f"P{i + 1}": u for i, u in enumerate(base.prover_unitaries)}
        with pytest.raises(DimensionMismatchError, match="all-fixed start"):
            protocol_ascent_problem(base).value(Strategy(slots, np.ones(2) / np.sqrt(2)))

    def test_missing_slot_rejected(self):
        base = rotated_copier_base(0.7)
        with pytest.raises(ConfigError, match="no unitary for slot 'P2'"):
            protocol_ascent_problem(base).value(Strategy({"P1": base.prover_unitaries[0]}))


class TestReplay:
    """The ascent's answer is a prover that the exact runners replay: on a
    base, its public coin and its collapse, the runner gives the ascent's
    value for the strategy the ascent returns."""

    @given(seed=st.integers(0, 2 ** 16), iters=st.integers(1, 4), restarts=st.integers(1, 2))
    def test_runners_replay_the_ascent_value(self, seed, iters, restarts):
        gen = rng_from(95, seed)
        base = InteractiveProtocol(
            random_pure_state(W1, gen), 1, 1, [random_unitary(4, gen) for _ in range(2)],
            [random_unitary(4, gen) for _ in range(2)])
        pc, col = make_public_coin(base), CollapsedProtocol(base)
        for problem, runner in ((protocol_ascent_problem(base, ancilla_qubits=1),
                                 functools.partial(run_protocol, base)),
                                (pc.problem, pc.acceptance),
                                (col.ascent_problem(2), col.acceptance)):
            res = alternating_ascent(problem, rng_from(96, seed), iters=iters,
                                     restarts=restarts)
            assert runner(res.strategy) == pytest.approx(res.value, abs=1e-12)


def _reference_ascent(problem, rng, iters, restarts, tol, warm_starts=()):
    """The ascent as a scalar loop that runs every branch from the initial
    vector for each output, contraction and objective. The starts run in
    lockstep: one iteration of each unconverged start, in start order.
    alternating_ascent keeps branch traces and runs the starts as one stack
    instead, and must match it bit for bit."""
    n = problem.n_qubits
    k = 0 if problem.fixed_init is None else len(problem.fixed_init).bit_length() - 1
    fixed_q, free_q = list(range(k)), list(range(k, n))

    def run(vec, steps, slots):
        return linalg.apply_gates(bind(steps, slots), vec, n)

    def run_back(vec, steps, slots):
        return linalg.apply_gates(linalg.adjoint(bind(steps, slots)), vec, n)

    def objective(slots, init):
        return sum(b.weight * float(np.linalg.norm(run(init, b.steps, slots)) ** 2)
                   for b in problem.branches)

    def slot_contraction(steps, slots, init, z, idx):
        before = run(init, steps[:idx], slots)
        after_z = run_back(z, steps[idx + 1:], slots)
        targets = list(steps[idx][1])
        perm = targets + [q for q in range(n) if q not in targets]
        x = linalg.permute_vector(before, perm, n).reshape(2 ** len(targets), -1)
        y = linalg.permute_vector(after_z, perm, n).reshape(2 ** len(targets), -1)
        return x @ y.conj().T

    def init_contraction(steps, slots, z):
        t_dag_z = run_back(z, steps, slots)
        t = t_dag_z.reshape((2,) * n).transpose(free_q + fixed_q).reshape(2 ** len(free_q), -1)
        if problem.fixed_init is None:
            return t.reshape(-1)
        return t @ problem.fixed_init.conj()

    def iterate(slots, init):
        """One iteration of one start: its slots in place, its new init."""
        for branch in problem.branches:
            out = run(init, branch.steps, slots)
            norm = np.linalg.norm(out)
            z = random_amplitudes(2 ** n, rng) if norm < 1e-14 else out / norm
            for idx, (op, _) in enumerate(branch.steps):
                if not isinstance(op, str):
                    continue
                slots[op] = _align(slot_contraction(branch.steps, slots, init, z, idx))
                out = run(init, branch.steps, slots)
                norm = np.linalg.norm(out)
                if norm > 1e-14:
                    z = out / norm
        if free_dim:
            h = np.zeros((free_dim, free_dim), dtype=complex)
            for branch in problem.branches:
                out = run(init, branch.steps, slots)
                norm = np.linalg.norm(out)
                if norm < 1e-14:
                    continue
                v = init_contraction(branch.steps, slots, out / norm)
                h += branch.weight * np.outer(v, v.conj())
            if np.linalg.norm(h) > 0:
                init = _assemble(problem, np.linalg.eigh(h)[1][:, -1])
        return init

    slot_specs = problem.slot_specs()
    free_dim = 2 ** len(free_q) if free_q else 0
    starts = []
    for start in list(warm_starts) + [None] * restarts:
        if start is not None:
            slots = {k: np.asarray(v, dtype=complex) for k, v in start.slots.items()}
            free = start.free
            if free is not None:
                free = np.asarray(free, dtype=complex)
            elif free_dim:
                free = random_amplitudes(free_dim, rng)
        else:
            slots = {k: random_unitary(2 ** a, rng) for k, a in slot_specs.items()}
            free = random_amplitudes(free_dim, rng) if free_dim else None
        init = _assemble(problem, free)
        value = objective(slots, init)
        starts.append([value, slots, init, [value], True])
    for _ in range(iters):
        for start in starts:
            value, slots, init, history, live = start
            if not live:
                continue
            init = iterate(slots, init)
            new_value = objective(slots, init)
            history.append(new_value)
            if new_value - value < tol:
                start[:] = [max(value, new_value), slots, init, history, False]
            else:
                start[:] = [new_value, slots, init, history, True]
    best = None
    for value, slots, init, history, _ in starts:
        if best is None or value > best[0]:
            best = (value, slots, init, history)
    return best


@st.composite
def _ascent_cases(draw):
    """A random ascent problem with zero to two warm starts: one or two
    branches of one or two slots, each after zero to two fixed gates
    (unitaries or projectors), optionally ending in |0><0| then |1><1| on
    one wire, so that their output always vanishes; zero to two flip
    branches |1><1|, slot, |1><1| on one wire, whose slot every warm start
    sets to X, so that their output vanishes at every warm start and the
    fresh directions drawn for it move the slot; a fully fixed or fully
    free start, or one fixed on a leading prefix of the qubits."""
    n = draw(st.integers(2, 3))
    gen = rng_from(draw(st.integers(0, 2 ** 16)))
    names = (f"S{k}" for k in itertools.count())

    def wires(k):
        return tuple(int(w) for w in gen.permutation(n)[:k])

    def fixed_gates():
        gates = []
        for _ in range(draw(st.integers(0, 2))):
            k = draw(st.integers(1, 2))
            mat = (random_unitary(2 ** k, gen) if draw(st.booleans())
                   else random_projector(2 ** k, draw(st.integers(1, 2 ** k - 1)), gen))
            gates.append((mat, wires(k)))
        return gates

    branches = []
    for _ in range(draw(st.integers(1, 2))):
        steps = []
        for _ in range(draw(st.integers(1, 2))):
            steps += fixed_gates() + [(next(names), wires(draw(st.integers(1, n))))]
        steps += fixed_gates()
        if draw(st.booleans()):
            q = wires(1)
            steps += [(P0, q), (P1, q)]
        branches.append(Branch(draw(st.sampled_from([1.0, 0.5, 0.25])), tuple(steps)))
    flips = []
    for _ in range(draw(st.integers(0, 2))):
        q = wires(1)
        flips.append(next(names))
        branches.append(Branch(draw(st.sampled_from([1.0, 0.5])),
                               ((P1, q), (flips[-1], q), (P1, q))))

    start = draw(st.sampled_from(["fixed", "free", "leading"]))
    if start == "fixed":
        fixed = n
    elif start == "free":
        fixed = 0
    else:
        fixed = draw(st.integers(1, n - 1))
    fixed_init = random_amplitudes(2 ** fixed, gen) if fixed else None
    problem = AscentProblem(n, tuple(branches), fixed_init)

    warm = []
    free_dim = 2 ** (n - fixed) if fixed < n else 0
    for _ in range(draw(st.integers(0, 2))):
        slots = {k: X if k in flips else random_unitary(2 ** a, gen)
                 for k, a in problem.slot_specs().items()}
        free = random_amplitudes(free_dim, gen) if free_dim and draw(st.booleans()) else None
        warm.append(Strategy(slots, free))
    return problem, warm


class TestTracedAscent:
    @given(case=_ascent_cases(), seed=st.integers(0, 2 ** 16),
           iters=st.integers(1, 4), restarts=st.integers(1, 4),
           tol=st.sampled_from([DEFAULT_TOL, 1e-2, 0.5]))
    def test_matches_untraced_loop(self, case, seed, iters, restarts, tol):
        problem, warm = case
        rng, ref_rng = rng_from(seed), rng_from(seed)
        got = alternating_ascent(problem, rng, iters=iters, restarts=restarts,
                                 tol=tol, warm_starts=warm)
        value, slots, initial, history = _reference_ascent(
            problem, ref_rng, iters, restarts, tol, warm)
        assert np.array_equal(got.value, value)
        assert np.array_equal(got.history, history)
        assert got.strategy.slots.keys() == slots.keys()
        assert all(np.array_equal(got.strategy.slots[k], slots[k]) for k in slots)
        assert np.array_equal(_assemble(problem, got.strategy.free), initial)
        assert np.array_equal(rng.bit_generator.state, ref_rng.bit_generator.state)
