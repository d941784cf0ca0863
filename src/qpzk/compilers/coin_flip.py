"""Malicious-verifier zero-knowledge via an ideal XOR coin.

Each of the ell sequential iterations replaces the public coin by the ideal
two-party XOR: in the trusted-third-party model the coin stays uniform no
matter how either party picks its input bit, so per-iteration soundness is
exactly the public-coin value. The simulator reproduces a corrupted
verifier's whole view by drawing its own transcript first and taking the
drawn coin as the XOR output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from qpzk.core.metrics import trace_distance
from qpzk.core.states import MixedState
from qpzk.errors import ConfigError
from qpzk.compilers.public_coin import PublicCoinProtocol, PublicCoinStrategy
from qpzk.protocol import HONEST, ProverStrategy


class CoinFlipProtocol:
    """Stage-IV object: sequential XOR-coin iterations of a public-coin
    protocol."""

    def __init__(self, base: PublicCoinProtocol, reps: int):
        if reps < 1:
            raise ConfigError("need at least one iteration")
        self.base = base
        self.reps = reps

    # -- real execution -----------------------------------------------------

    def run(self, prover: "CoinFlipProver", rng):
        """One full sequential execution; returns (accepted, coins)."""
        return self._run(prover, rng, self.base.branch_value)

    def _run(self, prover: "CoinFlipProver", rng, branch_value):
        coins: list[int] = []
        for t in range(self.reps):
            strategy = prover.strategy_for(t, tuple(coins))
            b_p = int(prover.coin_input(t, tuple(coins), rng)) & 1
            coin = b_p ^ int(rng.integers(2))
            coins.append(coin)
            value = branch_value(strategy, coin)
            if rng.random() >= value:
                return False, coins
        return True, coins

    def coin_marginal(self, prover: "CoinFlipProver", trials: int, rng):
        """Observed per-coin counts over trials, for uniformity tests. The
        draws are those of `trials` calls to run, but each (strategy, coin)
        branch is evaluated once."""
        values: dict = {}

        def branch_value(strategy, coin: int) -> float:
            # Keyed by identity; holding the strategy keeps its id unique.
            key = (id(strategy), coin)
            if key not in values:
                values[key] = (strategy, self.base.branch_value(strategy, coin))
            return values[key][1]

        counts = np.zeros(2, dtype=int)
        for _ in range(trials):
            _, coins = self._run(prover, rng, branch_value)
            for c in coins:
                counts[c] += 1
        return counts


@dataclass
class CoinFlipProver:
    """Prover side of stage IV: a coin input and a strategy per iteration,
    both allowed to depend on the coin history."""

    strategy_for: Callable[[int, tuple], PublicCoinStrategy]
    coin_input: Callable[[int, tuple, object], int]
    name: str = "honest"


def honest_coin_flip_prover(base: PublicCoinProtocol) -> CoinFlipProver:
    honest = base.honest_strategy()
    return CoinFlipProver(
        strategy_for=lambda t, hist: honest,
        coin_input=lambda t, hist, rng: int(rng.integers(2)),
        name="honest",
    )


def biased_coin_flip_prover(base: PublicCoinProtocol, bit: int,
                            adaptive: Optional[Callable] = None) -> CoinFlipProver:
    """An honest-strategy prover that always inputs `bit` (or an adaptive
    rule) into the XOR."""
    strat = base.honest_strategy()
    coin_in = (lambda t, hist, rng: adaptive(t, hist)) if adaptive \
        else (lambda t, hist, rng: bit)
    return CoinFlipProver(lambda t, hist: strat, coin_in, name=f"biased-{bit}")


# -- verifier views ------------------------------------------------------------


@dataclass(frozen=True)
class MaliciousVerifier:
    """Classical corruption model: an abort rule on the iteration index, the
    coin just drawn and the coin history. The verifier's own coin input is
    not modelled, since the honest prover's uniform input makes the XOR
    uniform whatever it is."""

    abort_after_coin: Callable[[int, int, tuple], bool] = lambda t, coin, hist: False
    name: str = "verifier"


HONEST_VERIFIER = MaliciousVerifier(name="honest")


@dataclass(frozen=True)
class IterationView:
    coin: int
    wm_state: MixedState


@dataclass(frozen=True)
class ViewBranchIV:
    probability: float
    iterations: tuple[IterationView, ...]
    aborted_at: Optional[int]


def _enumerate_views(compiled: CoinFlipProtocol, verifier: MaliciousVerifier,
                     states_per_coin: dict[int, MixedState]) -> list[ViewBranchIV]:
    """All coin-sequence branches with exact probabilities (coins are
    uniform in both the real and the simulated world)."""
    branches: list[ViewBranchIV] = []

    def walk(t: int, prob: float, history: tuple, acc: tuple):
        if t == compiled.reps:
            branches.append(ViewBranchIV(prob, acc, None))
            return
        for coin in (0, 1):
            p = prob * 0.5
            view = IterationView(coin, states_per_coin[coin])
            if verifier.abort_after_coin(t, coin, history):
                branches.append(ViewBranchIV(p, acc + (view,), t))
                continue
            walk(t + 1, p, history + (coin,), acc + (view,))

    walk(0, 1.0, (), ())
    return branches


def real_malicious_views(compiled: CoinFlipProtocol,
                         verifier: MaliciousVerifier) -> list[ViewBranchIV]:
    """Exact view ensemble of the corrupted verifier against the honest
    prover: the honest coin input is uniform, so the XOR output is uniform
    whatever coin input the verifier chooses."""
    return _enumerate_views(compiled, verifier, compiled.base.coin_views(HONEST))


def zk_simulate_malicious(compiled: CoinFlipProtocol, verifier: MaliciousVerifier,
                          sim: ProverStrategy) -> list[ViewBranchIV]:
    """Simulated view ensemble: per iteration the simulator draws (W, M, b)
    itself and takes b as the XOR output, whatever coin input the verifier
    chooses."""
    return _enumerate_views(compiled, verifier, compiled.base.coin_views(sim))


def view_ensemble_distance(a: Sequence[ViewBranchIV], b: Sequence[ViewBranchIV]) -> float:
    """Worst-case mismatch between two view ensembles: probability gaps plus
    per-iteration trace distances over matching coin sequences."""
    def key(branch: ViewBranchIV):
        return (tuple(v.coin for v in branch.iterations), branch.aborted_at)

    da = {key(x): x for x in a}
    db = {key(x): x for x in b}
    worst = 0.0
    for k in set(da) | set(db):
        xa, xb = da.get(k), db.get(k)
        if xa is None or xb is None:
            worst = max(worst, (xa or xb).probability)
            continue
        worst = max(worst, abs(xa.probability - xb.probability))
        for va, vb in zip(xa.iterations, xb.iterations):
            worst = max(worst, trace_distance(va.wm_state, vb.wm_state))
    return worst
