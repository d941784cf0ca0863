"""Composition of the compiler stages and the certified composite bound."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from qpzk.core.sampling import random_amplitudes
from qpzk.protocol import InteractiveProtocol, load_protocol
from qpzk.compilers.collapse import (
    CollapsedProtocol,
    as_three_message,
    collapse_rounds,
    collapsed_soundness,
)
from qpzk.compilers.public_coin import (
    PublicCoinProtocol,
    PublicCoinStrategy,
    make_public_coin,
    public_coin_soundness,
)
from qpzk.compilers.repetition import repeated_soundness
from qpzk.compilers.coin_flip import CoinFlipProtocol, make_malicious_zk


def composite_bound(zeta_base: float, r: int, k: int) -> float:
    """public_coin_soundness(collapsed_soundness(zeta, r)^k): the pipeline's
    certified soundness value (unclamped; may exceed one)."""
    inner = repeated_soundness(collapsed_soundness(zeta_base, r), k)
    return public_coin_soundness(inner)


@dataclass
class PipelineStages:
    base: InteractiveProtocol
    collapsed: CollapsedProtocol
    collapsed_cast: InteractiveProtocol
    public_coin: PublicCoinProtocol
    coin_flip: Optional[CoinFlipProtocol]
    repetitions: int
    zk_reps: int


def build_pipeline(base: InteractiveProtocol, k: int = 1,
                   zk_reps: int = 0) -> PipelineStages:
    """Executable chain collapse -> standard-form cast -> public coin
    (-> coin flip). The repetition factor k enters the certified bound as a
    formula; the executable cast is wrapped directly (k = 1 form)."""
    collapsed = collapse_rounds(base)
    cast = as_three_message(collapsed)
    public = make_public_coin(cast)
    coin_flip = make_malicious_zk(public, zk_reps) if zk_reps else None
    return PipelineStages(base, collapsed, cast, public, coin_flip, k, zk_reps)


def pipeline_cheat_strategies(stages: PipelineStages, rng) -> list[PublicCoinStrategy]:
    """Concrete cheating provers against the final public-coin protocol."""
    pc = stages.public_coin
    honest = pc.honest_strategy()
    n = pc.base.layout.total_qubits
    rm_dim = 2 ** (pc.base.r_qubits + pc.base.m_qubits)
    ident = np.eye(rm_dim, dtype=complex)

    garbage = PublicCoinStrategy(random_amplitudes(2 ** n, rng),
                                 lambda b: ident, "garbage-opening")
    lazy = PublicCoinStrategy(honest.opening, lambda b: ident, "always-idle")
    eager = PublicCoinStrategy(honest.opening,
                               lambda b: honest.response_for(0), "always-final-move")
    return [garbage, lazy, eager]


def load_pipeline_base(path: Optional[str]) -> InteractiveProtocol:
    if path is None:
        from qpzk.compilers.examples import copier_base

        return copier_base()
    return load_protocol(path)
