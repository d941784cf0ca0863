"""Composition of the compiler stages and the certified composite bound."""

from __future__ import annotations

import numpy as np

from qpzk.core.sampling import random_amplitudes
from qpzk.protocol import InteractiveProtocol, Strategy
from qpzk.compilers.collapse import CollapsedProtocol, as_three_message, collapsed_soundness
from qpzk.compilers.public_coin import (
    PublicCoinProtocol,
    make_public_coin,
    public_coin_soundness,
)
from qpzk.compilers.repetition import repeated_soundness


def composite_bound(zeta_base: float, r: int, k: int) -> float:
    """public_coin_soundness(collapsed_soundness(zeta, r)^k): the pipeline's
    certified soundness value (unclamped; may exceed one)."""
    inner = repeated_soundness(collapsed_soundness(zeta_base, r), k)
    return public_coin_soundness(inner)


def build_pipeline(base: InteractiveProtocol) -> PublicCoinProtocol:
    """Executable chain collapse -> standard-form cast -> public coin; the
    result's base is the cast. A repetition factor k enters only the
    certified bound, as a formula (composite_bound); the executable cast is
    wrapped directly (k = 1 form)."""
    return make_public_coin(as_three_message(CollapsedProtocol(base)))


def pipeline_cheat_strategies(pc: PublicCoinProtocol, rng) -> list[Strategy]:
    """Concrete cheating provers against the final public-coin protocol."""
    honest = pc.honest_strategy()
    n = pc.base.layout.total_qubits
    rm_dim = 2 ** (pc.base.r_qubits + pc.base.m_qubits)
    idle = dict.fromkeys(("U0", "U1"), np.eye(rm_dim, dtype=complex))

    garbage = Strategy.computed(idle, random_amplitudes(2 ** n, rng), "garbage-opening")
    lazy = Strategy.computed(idle, honest.free, "always-idle")
    final_move = dict.fromkeys(("U0", "U1"), honest.slots["U0"])
    eager = Strategy.computed(final_move, honest.free, "always-final-move")
    return [garbage, lazy, eager]

