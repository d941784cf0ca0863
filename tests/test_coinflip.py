"""Coin-flip stage: coin uniformity against biasing provers, sequential
product law, and exact view equality for the malicious-verifier simulator."""

import numpy as np
import pytest
from scipy import stats

from qpzk.core import rng_from
from qpzk.compilers.coin_flip import (
    HONEST_VERIFIER,
    CoinFlipProtocol,
    MaliciousVerifier,
    biased_coin_flip_prover,
    honest_coin_flip_prover,
    real_malicious_views,
    view_ensemble_distance,
    zk_simulate_malicious,
)
from qpzk.compilers.examples import copier_base, rotated_copier_base
from qpzk.compilers.public_coin import make_public_coin
from qpzk.compilers.types import HvzkSimulator
from qpzk.errors import ConfigError
from qpzk.harness.kinds.zk import _uniform_chi_square_p
from qpzk.protocol import HONEST, sample_run


@pytest.fixture(scope="module")
def public_coin():
    return make_public_coin(copier_base())


@pytest.fixture(scope="module")
def simulator():
    return HvzkSimulator.from_honest_prover(copier_base())


class TestCoinUniformity:
    @pytest.mark.parametrize("bias", [0, 1])
    def test_constant_bias_cannot_tilt_the_coin(self, public_coin, bias):
        cf = CoinFlipProtocol(public_coin, 1)
        prover = biased_coin_flip_prover(public_coin, bias)
        counts = cf.coin_marginal(prover, 4000, rng_from(3000, bias))
        chi2, p = stats.chisquare(counts)
        assert p > 0.01

    def test_adaptive_bias_cannot_tilt_the_coin(self, public_coin):
        cf = CoinFlipProtocol(public_coin, 2)
        prover = biased_coin_flip_prover(
            public_coin, 0,
            adaptive=lambda t, hist: (hist[-1] if hist else 1))
        counts = cf.coin_marginal(prover, 3000, rng_from(3001))
        chi2, p = stats.chisquare(counts)
        assert p > 0.01

    def test_coin_marginal_evaluates_each_branch_once(self, public_coin, monkeypatch):
        calls = []
        branch_value = type(public_coin).branch_value

        def counting_branch_value(self, strat, b):
            calls.append(b)
            return branch_value(self, strat, b)

        monkeypatch.setattr(type(public_coin), "branch_value", counting_branch_value)
        cf = CoinFlipProtocol(public_coin, 2)
        cf.coin_marginal(biased_coin_flip_prover(public_coin, 1), 5000, rng_from(3002))
        assert sorted(calls) == [0, 1]

    def test_p_value_matches_scipy_chisquare(self):
        # One degree of freedom: the closed form erfc(sqrt(x / 2)) against
        # scipy's chi-square tail, on count pairs of coins with biases from
        # 0.45 to 0.55, whose p-values run from about 1e-63 to 1.
        rng = rng_from(3003)
        totals = rng.integers(10, 20001, size=20000)
        ones = rng.binomial(totals, rng.uniform(0.45, 0.55, size=totals.size))
        counts = np.stack([totals - ones, ones], axis=1)
        want = stats.chisquare(counts, axis=1).pvalue
        got = [_uniform_chi_square_p(pair) for pair in counts]
        assert got == pytest.approx(want.tolist(), rel=1e-12, abs=0.0)
        assert _uniform_chi_square_p([700, 700]) == 1.0

    def test_honest_parties_accept(self, public_coin):
        cf = CoinFlipProtocol(public_coin, 3)
        rng = rng_from(3002)
        outcomes = [cf.run(honest_coin_flip_prover(public_coin), rng)[0]
                    for _ in range(100)]
        assert all(outcomes)
        hon = cf.base.honest_strategy()
        assert cf.base.acceptance(hon) == pytest.approx(1.0, abs=1e-9)


class TestSequentialProduct:
    def test_three_iterations_of_a_point_eight_strategy(self):
        # Per-iteration value 0.8: branch 0 passes with probability 0.6 and
        # branch 1 with probability 1.0 under a lazy prover against a base
        # whose final rotation leaves cos(theta/2)^2 = 0.6.
        theta = 2 * np.arccos(np.sqrt(0.6))
        base = rotated_copier_base(theta)
        pc = make_public_coin(base)
        hon = pc.honest_strategy()
        per_iteration = pc.acceptance(hon)
        assert per_iteration == pytest.approx(0.8, abs=1e-9)
        cf = CoinFlipProtocol(pc, 3)
        prover = honest_coin_flip_prover(pc)
        rng = rng_from(3100)
        n = 3000
        hits = sum(cf.run(prover, rng)[0] for _ in range(n))
        want = 0.8 ** 3
        sigma = np.sqrt(want * (1 - want) / n)
        assert abs(hits / n - want) <= 3 * sigma + 1e-9


class TestMaliciousSimulation:
    def test_honest_verifier_views_match(self, public_coin, simulator):
        cf = CoinFlipProtocol(public_coin, 2)
        real = real_malicious_views(cf, HONEST_VERIFIER)
        sim = zk_simulate_malicious(cf, HONEST_VERIFIER, simulator)
        assert view_ensemble_distance(real, sim) < 1e-9

    def test_fixed_bv_verifier_views_match(self, public_coin, simulator):
        cf = CoinFlipProtocol(public_coin, 2)
        # The XOR output is uniform whatever bit the verifier inputs, so a
        # verifier with a fixed input differs from the honest one only in name.
        fixed = MaliciousVerifier(name="bv0")
        real = real_malicious_views(cf, fixed)
        sim = zk_simulate_malicious(cf, fixed, simulator)
        assert view_ensemble_distance(real, sim) < 1e-9

    def test_aborting_verifier_views_match(self, public_coin, simulator):
        cf = CoinFlipProtocol(public_coin, 3)
        aborting = MaliciousVerifier(lambda t, coin, hist: (t == 1 and coin == 1),
                                     "abort-second-iteration")
        real = real_malicious_views(cf, aborting)
        sim = zk_simulate_malicious(cf, aborting, simulator)
        assert view_ensemble_distance(real, sim) < 1e-9
        aborted = [b for b in real if b.aborted_at is not None]
        assert aborted and all(b.aborted_at == 1 for b in aborted)
        assert sum(b.probability for b in aborted) == pytest.approx(0.5, abs=1e-12)

    def test_simulated_acceptance_matches_real(self, public_coin, simulator):
        # Run the honest-verifier checks over both view ensembles.
        cf = CoinFlipProtocol(public_coin, 1)
        real = real_malicious_views(cf, HONEST_VERIFIER)
        sim = zk_simulate_malicious(cf, HONEST_VERIFIER, simulator)

        def acceptance(views):
            total = 0.0
            for branch in views:
                value = 1.0
                for it in branch.iterations:
                    value *= public_coin.transcript_acceptance(it.wm_state, it.coin)
                total += branch.probability * value
            return total

        assert acceptance(real) == pytest.approx(acceptance(sim), abs=1e-9)
        assert acceptance(real) == pytest.approx(1.0, abs=1e-9)


class TestPinnedStreams:
    """Coins, outcomes and the generator state left after them, recorded
    once, so a change to how a coin is formed cannot move any stream."""

    @pytest.mark.parametrize("bias,counts,state,uinteger", [
        (None, [79, 71], 153627943411942063773784205043709672057, 2517271851),
        (1, [76, 74], 193980637223167181878219062781474376378, 3827527923),
    ], ids=["honest", "biased-1"])
    def test_coin_marginal_counts_and_state(self, public_coin, bias, counts, state,
                                            uinteger):
        cf = CoinFlipProtocol(public_coin, 3)
        prover = (honest_coin_flip_prover(public_coin) if bias is None
                  else biased_coin_flip_prover(public_coin, bias))
        rng = rng_from(4100)
        assert cf.coin_marginal(prover, 50, rng).tolist() == counts
        assert rng.bit_generator.state == {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": 267179764158558796706505879842558806353},
            "has_uint32": 0, "uinteger": uinteger}

    def test_run_outcomes_and_state(self):
        # A 0.8 base, so runs also stop early on a failed iteration.
        pc = make_public_coin(rotated_copier_base(2 * np.arccos(np.sqrt(0.6))))
        cf = CoinFlipProtocol(pc, 3)
        rng = rng_from(4101)
        runs = [cf.run(biased_coin_flip_prover(pc, 0), rng) for _ in range(8)]
        assert runs == [(True, [0, 0, 0]), (False, [1, 0]), (False, [1, 0]),
                        (False, [0, 1, 0]), (False, [0]), (True, [1, 1, 1]),
                        (True, [0, 0, 1]), (False, [1, 0])]
        assert rng.bit_generator.state == {
            "bit_generator": "PCG64",
            "state": {"state": 176619059363023002034079103814942261520,
                      "inc": 2776515781858303868429381520593645709},
            "has_uint32": 1, "uinteger": 1246513691}


class TestValidation:
    def test_rejects_zero_reps(self, public_coin):
        with pytest.raises(ConfigError):
            CoinFlipProtocol(public_coin, 0)

    def test_sample_run_points_to_run(self, public_coin):
        cf = CoinFlipProtocol(public_coin, 2)
        with pytest.raises(ConfigError, match=r"CoinFlipProtocol.*CoinFlipProtocol\.run"):
            sample_run(cf, HONEST, [0, 1], rng_from(0))
