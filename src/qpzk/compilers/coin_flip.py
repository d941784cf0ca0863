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
from typing import Callable, Optional

import numpy as np

from qpzk.core.states import MixedState
from qpzk.errors import ConfigError
from qpzk.compilers.public_coin import PublicCoinProtocol
from qpzk.protocol import Strategy


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

    strategy_for: Callable[[int, tuple], Strategy]
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


def _enumerate_views(compiled: CoinFlipProtocol, verifier: MaliciousVerifier,
                     states_per_coin: dict[int, MixedState]) -> dict:
    """{(coins, aborted_at): (p, [each iteration's (W, M) state])} over every
    coin sequence, with exact probabilities (coins are uniform in both the
    real and the simulated world)."""
    view = {}

    def walk(t: int, prob: float, history: tuple):
        if t == compiled.reps:
            view[history, None] = (prob, [states_per_coin[c] for c in history])
            return
        for coin in (0, 1):
            seen = history + (coin,)
            if verifier.abort_after_coin(t, coin, history):
                view[seen, t] = (prob * 0.5, [states_per_coin[c] for c in seen])
            else:
                walk(t + 1, prob * 0.5, seen)

    walk(0, 1.0, ())
    return view


def real_malicious_views(compiled: CoinFlipProtocol, verifier: MaliciousVerifier) -> dict:
    """Exact view of the corrupted verifier against the honest prover: the
    honest coin input is uniform, so the XOR output is uniform whatever
    coin input the verifier chooses."""
    pc = compiled.base
    return _enumerate_views(compiled, verifier, pc.coin_views(pc.base.honest))


def zk_simulate_malicious(compiled: CoinFlipProtocol, verifier: MaliciousVerifier,
                          sim: Strategy) -> dict:
    """Simulated view: per iteration the simulator draws (W, M, b) itself
    and takes b as the XOR output, whatever coin input the verifier
    chooses."""
    return _enumerate_views(compiled, verifier, compiled.base.coin_views(sim))
