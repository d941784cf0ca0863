"""Malicious-verifier zero-knowledge via an ideal XOR coin.

Each of the ell sequential iterations replaces the public coin by the ideal
two-party XOR: in the trusted-third-party model the coin stays uniform no
matter how either party picks its input bit, so per-iteration soundness is
exactly the public-coin value. The simulator reproduces a corrupted
verifier's whole view by drawing its own transcript first and programming
the XOR output to the drawn coin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from qpzk.core import linalg
from qpzk.core.metrics import trace_distance
from qpzk.core.states import MixedState
from qpzk.crypto.ideal import IdealSession, ideal_compute_classical, xor_coin_functionality
from qpzk.errors import ConfigError
from qpzk.compilers.public_coin import PublicCoinProtocol, PublicCoinStrategy
from qpzk.compilers.types import HvzkSimulator


class CoinFlipProtocol:
    """Stage-IV object: sequential XOR-coin iterations of a public-coin
    protocol."""

    stage = "IV"

    def __init__(self, base: PublicCoinProtocol, reps: int):
        if reps < 1:
            raise ConfigError("need at least one iteration")
        self.base = base
        self.reps = reps

    @property
    def num_challenges(self) -> int:
        return self.reps

    # -- real execution -----------------------------------------------------

    def run(self, prover: "CoinFlipProver", rng):
        """One full sequential execution; returns (accepted, coins)."""
        coins: list[int] = []
        for t in range(self.reps):
            strategy = prover.strategy_for(t, tuple(coins))
            b_p = int(prover.coin_input(t, tuple(coins), rng)) & 1
            session = IdealSession(xor_coin_functionality(),
                                   corrupted="A" if prover.adversarial else None)
            b_v = int(rng.integers(2))
            out_p, out_v, _ = ideal_compute_classical(session, b_p, b_v, rng)
            coin = out_v
            coins.append(coin)
            value = self.base.branch_value(strategy, coin)
            if rng.random() >= value:
                return False, coins
        return True, coins

    def coin_marginal(self, prover: "CoinFlipProver", trials: int, rng):
        """Observed per-coin counts over trials, for uniformity tests."""
        counts = np.zeros(2, dtype=int)
        for _ in range(trials):
            _, coins = self.run(prover, rng)
            for c in coins:
                counts[c] += 1
        return counts

    def honest_acceptance_lower_bound(self) -> float:
        hon = self.base.honest_strategy()
        per = self.base.acceptance(hon)
        return max(0.0, 1.0 - self.reps * (1.0 - per))


@dataclass
class CoinFlipProver:
    """Prover side of stage IV: a coin input and a strategy per iteration,
    both allowed to depend on the coin history."""

    strategy_for: Callable[[int, tuple], PublicCoinStrategy]
    coin_input: Callable[[int, tuple, object], int]
    adversarial: bool = False
    name: str = "honest"


def honest_coin_flip_prover(base: PublicCoinProtocol) -> CoinFlipProver:
    honest = base.honest_strategy()
    return CoinFlipProver(
        strategy_for=lambda t, hist: honest,
        coin_input=lambda t, hist, rng: int(rng.integers(2)),
        adversarial=False,
        name="honest",
    )


def biased_coin_flip_prover(base: PublicCoinProtocol, bit: int,
                            strategy: Optional[PublicCoinStrategy] = None,
                            adaptive: Optional[Callable] = None) -> CoinFlipProver:
    """A prover that always inputs `bit` (or an adaptive rule) into the XOR."""
    strat = strategy or base.honest_strategy()
    coin_in = (lambda t, hist, rng: adaptive(t, hist)) if adaptive \
        else (lambda t, hist, rng: bit)
    return CoinFlipProver(lambda t, hist: strat, coin_in,
                          adversarial=True, name=f"biased-{bit}")


def make_malicious_zk(base: PublicCoinProtocol, reps: int) -> CoinFlipProtocol:
    return CoinFlipProtocol(base, reps)


# -- verifier views ------------------------------------------------------------


@dataclass(frozen=True)
class MaliciousVerifier:
    """Classical corruption model: a coin-input rule and an abort rule, both
    functions of the iteration index and coin history."""

    bv_for: Callable[[int, tuple], int]
    abort_after_coin: Callable[[int, int, tuple], bool] = \
        field(default=lambda t, coin, hist: False)
    name: str = "verifier"


HONEST_VERIFIER = MaliciousVerifier(lambda t, hist: 0, lambda t, c, h: False, "honest")


@dataclass(frozen=True)
class IterationView:
    coin: int
    wm_state: MixedState


@dataclass(frozen=True)
class ViewBranchIV:
    probability: float
    iterations: tuple[IterationView, ...]
    aborted_at: Optional[int]


def _honest_iteration_states(base: PublicCoinProtocol) -> dict[int, MixedState]:
    """Real (W, M) joint per coin under the honest prover."""
    from qpzk.core.registers import RegisterLayout

    strat = base.honest_strategy()
    lay = base.base.layout
    n = lay.total_qubits
    out = {}
    out_lay = RegisterLayout.of(("W", base.base.w_qubits), ("M", base.base.m_qubits))
    for b in (0, 1):
        vec = linalg.apply_to_vector(strat.response_for(b), strat.opening,
                                     lay.qubits_of_all(["R", "M"]), n)
        red = linalg.partial_trace_vector(vec, lay.qubits_of_all(["W", "M"]), n)
        out[b] = MixedState(red, out_lay)
    return out


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
    whatever bv rule the verifier follows."""
    return _enumerate_views(compiled, verifier,
                            _honest_iteration_states(compiled.base))


def zk_simulate_malicious(compiled: CoinFlipProtocol, verifier: MaliciousVerifier,
                          sim: HvzkSimulator) -> list[ViewBranchIV]:
    """Simulated view ensemble: per iteration the simulator draws (W, M, b)
    itself, extracts the verifier's coin input through the ideal session and
    programs the session output to b."""
    transcripts = compiled.base.simulator_transcripts(sim)
    states = {b: transcripts[b] for b in (0, 1)}
    # Exercise the extract/program bookkeeping once per iteration branch.
    for b in (0, 1):
        session = IdealSession(xor_coin_functionality(), corrupted="B")
        session.extract(verifier.bv_for(0, ()))
        session.program(b)
    return _enumerate_views(compiled, verifier, states)


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
