"""Public-coin stage: honest value, formula, oracle bound, simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpzk.core import PureState, RegisterLayout, rng_from, random_unitary
from qpzk.core.sampling import random_amplitudes
from qpzk.compilers.examples import copier_base, hidden_target_base, rotated_copier_base
from qpzk.compilers.public_coin import (
    PublicCoinProtocol,
    hv_simulate_public_coin,
    make_public_coin,
    public_coin_soundness,
)
from qpzk.errors import ConfigError
from qpzk.optimize import alternating_ascent, brute_force_prover_value
from qpzk.protocol import InteractiveProtocol, Strategy, run_protocol, sample_run


class TestFormula:
    def test_values(self):
        assert public_coin_soundness(0.0) == pytest.approx(0.75, abs=1e-15)
        assert public_coin_soundness(1.0) == pytest.approx(1.25, abs=1e-15)
        assert public_coin_soundness(0.25) == pytest.approx(1.0, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ConfigError):
            public_coin_soundness(1.5)


class TestHonestExecution:
    def test_copier_honest_acceptance(self):
        pc = make_public_coin(copier_base())
        hon = pc.honest_strategy()
        assert pc.branch_value(hon, 0) == pytest.approx(1.0, abs=1e-9)
        assert pc.branch_value(hon, 1) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("theta", [0.4, 1.1])
    def test_honest_at_least_base_completeness(self, theta):
        base = rotated_copier_base(theta)
        completeness = run_protocol(base)
        pc = make_public_coin(base)
        hon = pc.honest_strategy()
        # Branch 1 always accepts for the honest prover, so the average sits
        # at least as high as the base completeness.
        assert pc.acceptance(hon) >= 1.0 - (1.0 - completeness) - 1e-9
        assert pc.branch_value(hon, 1) == pytest.approx(1.0, abs=1e-9)

    def test_exact_acceptance_is_branch_average(self):
        pc = make_public_coin(copier_base())
        hon = pc.honest_strategy()
        want = 0.5 * pc.branch_value(hon, 0) + 0.5 * pc.branch_value(hon, 1)
        assert pc.acceptance(hon) == pytest.approx(want, abs=1e-12)

    def test_monte_carlo_agrees_with_exact(self):
        pc = make_public_coin(rotated_copier_base(0.9))
        hon = pc.honest_strategy()
        exact = pc.acceptance(hon)
        rng = rng_from(2500)
        n = 4000
        hits = sum(sample_run(pc, hon, None, rng)[0] for _ in range(n))
        sigma = np.sqrt(exact * (1 - exact) / n)
        assert abs(hits / n - exact) <= 3 * sigma + 1e-9


class _FixedBranches(PublicCoinProtocol):
    """A public-coin protocol reduced to two given branch values."""

    def __init__(self, values):
        self.values = values

    def branch_value(self, strat, b):
        return self.values[b]


def _same_count_distribution(a: int, b: int, p: float, trials: int) -> bool:
    """Two independent Binomial(trials, p) counts differ by at most 4 sigma
    of their difference; at p of 0 or 1 they must be equal."""
    return abs(a - b) <= 4 * np.sqrt(2 * trials * p * (1 - p))


class TestSampling:
    def test_hits_within_4_sigma_of_the_exact_acceptance(self):
        pc = make_public_coin(rotated_copier_base(0.8))
        g = rng_from(2550)
        responses = {"U0": random_unitary(4, g), "U1": random_unitary(4, g)}
        strat = Strategy(responses, random_amplitudes(8, g), "random")
        assert 0.05 < pc.branch_value(strat, 0) < 0.95
        assert 0.05 < pc.branch_value(strat, 1) < 0.95
        n = 10 ** 5
        hits, exact = pc.sample_hits(strat, n, rng_from(2551))
        assert exact == pc.acceptance(strat)
        assert abs(hits - n * exact) <= 4 * np.sqrt(n * exact * (1 - exact))

    # Certain branches, one rounded just above 1, and fractional ones.
    @pytest.mark.parametrize("values", [(0.0, 0.0), (1.0, 1.0), (1.0, 1.0 + 4e-16),
                                        (0.0, 1.0), (0.3, 0.9)])
    def test_hits_of_fixed_branch_values_within_4_sigma(self, values):
        n = 10 ** 5
        hits, exact = _FixedBranches(values).sample_hits(None, n, rng_from(2553))
        assert exact == 0.5 * values[0] + 0.5 * values[1]
        p = min(exact, 1.0)
        assert abs(hits - n * p) <= 4 * np.sqrt(n * p * (1 - p))

    def test_sampler_matches_sample_run_loop(self):
        pc = make_public_coin(rotated_copier_base(0.8))
        g = rng_from(2550)
        responses = {"U0": random_unitary(4, g), "U1": random_unitary(4, g)}
        strat = Strategy(responses, random_amplitudes(8, g), "random")
        n = 2000
        loop_rng = rng_from(2552, 0)
        loop_hits = sum(pc.sample_run(strat, None, loop_rng)[0] for _ in range(n))
        hits, exact = pc.sample_hits(strat, n, rng_from(2552, 1))
        assert _same_count_distribution(hits, loop_hits, exact, n)

    @given(values=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           trials=st.sampled_from([1, 100, 3000]), seed=st.integers(0, 2 ** 32))
    def test_sampler_matches_sample_run_loop_for_any_branch_values(self, values, trials, seed):
        pc = _FixedBranches(values)
        loop_rng = rng_from(seed, 0)
        loop_hits = sum(pc.sample_run(None, None, loop_rng)[0] for _ in range(trials))
        hits, exact = pc.sample_hits(None, trials, rng_from(seed, 1))
        assert _same_count_distribution(hits, loop_hits, min(exact, 1.0), trials)

    @pytest.mark.parametrize("coin", [0, 1])
    def test_scheduled_coin_from_an_iterator(self, coin):
        pc = make_public_coin(rotated_copier_base(0.8))
        strat = pc.honest_strategy()
        from_list = pc.sample_run(strat, [coin], rng_from(2552))
        assert pc.sample_run(strat, iter([coin]), rng_from(2552)) == from_list
        assert from_list[1] == (coin, pc.branch_value(strat, coin))

    @pytest.mark.parametrize("coin", [2, -1])
    def test_scheduled_coin_outside_zero_one_rejected(self, coin):
        pc = make_public_coin(copier_base())
        with pytest.raises(ConfigError, match="coin"):
            pc.sample_run(pc.honest_strategy(), [coin], rng_from(0))


class TestSoundness:
    @pytest.mark.parametrize("theta", [0.35, 0.8])
    def test_oracle_below_bound_informative(self, theta):
        base = hidden_target_base(theta)
        zeta = brute_force_prover_value(base, rng_from(2600), restarts=6, iters=100)
        bound = public_coin_soundness(min(zeta, 1.0))
        pc = make_public_coin(base)
        res = alternating_ascent(pc.problem, rng_from(2601),
                                 restarts=6, iters=120)
        assert res.value <= bound + 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_oracle_below_bound_random(self, seed):
        g = rng_from(2700, seed)
        psi_v = PureState.from_bits(RegisterLayout.single("W", 1), "0")
        base = InteractiveProtocol.from_verifier_start(
            psi_v, 2, 1, [random_unitary(4, g), random_unitary(4, g)],
            [np.eye(8, dtype=complex)] * 2)
        zeta = brute_force_prover_value(base, rng_from(2710, seed),
                                        restarts=6, iters=100)
        bound = public_coin_soundness(min(zeta, 1.0))
        pc = PublicCoinProtocol(base)
        res = alternating_ascent(pc.problem, rng_from(2720, seed),
                                 restarts=6, iters=120)
        assert res.value <= bound + 1e-6


class TestSimulator:
    def test_exact_simulator_transcripts_accepted(self):
        base = copier_base()
        pc = make_public_coin(base)
        sim = Strategy(base.honest.slots, name="honest-prover-standin")
        transcripts = pc.coin_views(sim)
        assert pc.transcript_acceptance(transcripts[0], 0) == pytest.approx(1.0, abs=1e-9)
        assert pc.transcript_acceptance(transcripts[1], 1) == pytest.approx(1.0, abs=1e-9)

    def test_branch_frequency_uniform(self):
        base = copier_base()
        pc = make_public_coin(base)
        sim = Strategy(base.honest.slots, name="honest-prover-standin")
        rng = rng_from(2800)
        n = 4000
        ones = sum(t.coin for t in hv_simulate_public_coin(pc, sim, n, rng))
        sigma = np.sqrt(0.25 / n)
        assert abs(ones / n - 0.5) <= 3 * sigma

    @pytest.mark.parametrize("trials", [1, 1025, 3000])
    def test_coins_are_the_scalar_coin_draws(self, trials):
        base = copier_base()
        pc = make_public_coin(base)
        sim = Strategy(base.honest.slots, name="honest-prover-standin")
        loop_rng, sim_rng = rng_from(2801), rng_from(2801)
        coins = [int(loop_rng.integers(2)) for _ in range(trials)]
        assert [t.coin for t in hv_simulate_public_coin(pc, sim, trials, sim_rng)] == coins
        assert sim_rng.bit_generator.state == loop_rng.bit_generator.state

    def test_simulated_swap_branch_passes_exactly(self):
        base = rotated_copier_base(0.7)
        pc = make_public_coin(base)
        sim = Strategy(base.honest.slots, name="honest-prover-standin")
        transcripts = pc.coin_views(sim)
        assert pc.transcript_acceptance(transcripts[1], 1) == pytest.approx(1.0, abs=1e-9)


def _dense_apply(op: np.ndarray, vec: np.ndarray, dims: tuple, on_r: bool) -> np.ndarray:
    """op on (R, M) if on_r else on (W, M) of a vector in (R, W, M) order."""
    dr, dw, dm = dims
    t = vec.reshape(dims)
    if on_r:
        out = np.einsum("amcn,cwn->awm", op.reshape(dr, dm, dr, dm), t)
    else:
        out = np.einsum("wmvn,rvn->rwm", op.reshape(dw, dm, dw, dm), t)
    return out.reshape(-1)


def _dense_trace_r(vec: np.ndarray, dims: tuple) -> np.ndarray:
    t = vec.reshape(dims[0], -1)
    return t.T @ t.conj()


class TestCoinViews:
    @given(r=st.integers(1, 2), w=st.integers(1, 2), m=st.integers(1, 2),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_views_match_the_dense_reference(self, r, w, m, seed):
        # b = 0 sees Tr_R P2 V1 P1 |psi0>, b = 1 sees Tr_R V1 P1 |psi0>, for
        # the honest prover and for a simulator with its own rounds alike.
        from scipy.stats import unitary_group

        g = np.random.default_rng(seed)
        dims = (2 ** r, 2 ** w, 2 ** m)
        haar = lambda d: unitary_group.rvs(d, random_state=g)
        psi_v = g.normal(size=dims[1]) + 1j * g.normal(size=dims[1])
        psi_v /= np.linalg.norm(psi_v)
        vs = [haar(dims[1] * dims[2]) for _ in range(2)]
        honest = [haar(dims[0] * dims[2]) for _ in range(2)]
        base = InteractiveProtocol.from_verifier_start(
            PureState(psi_v, RegisterLayout.single("W", w)), r, m, vs, honest)
        pc = PublicCoinProtocol(base)
        start = np.kron(np.kron(np.eye(dims[0])[0], psi_v), np.eye(dims[2])[0])
        sim = Strategy({f"P{i}": haar(dims[0] * dims[2]) for i in (1, 2)}, name="sim")
        for prover, (p1, p2) in ((base.honest, honest), (sim, sim.slots.values())):
            one = _dense_apply(vs[0], _dense_apply(p1, start, dims, True), dims, False)
            two = _dense_apply(p2, one, dims, True)
            views = pc.coin_views(prover)
            np.testing.assert_allclose(views[0].matrix, _dense_trace_r(two, dims), atol=1e-12)
            np.testing.assert_allclose(views[1].matrix, _dense_trace_r(one, dims), atol=1e-12)
