"""Parallel repetition: formula values and the executable k = 2 product law."""

import numpy as np
import pytest

from qpzk.core import PureState, RegisterLayout, rng_from, random_unitary
from qpzk.compilers.examples import copier_base
from qpzk.compilers.repetition import parallel_repeat, repeated_soundness
from qpzk.errors import ConfigError, QubitCapExceededError
from qpzk.optimize import brute_force_prover_value, optimal_three_message_value
from qpzk.protocol import InteractiveProtocol, run_protocol


class TestFormula:
    def test_half_to_the_ten(self):
        assert repeated_soundness(0.5, 10) == pytest.approx(2.0 ** -10, abs=0)

    def test_identity_at_one_repetition(self):
        assert repeated_soundness(0.37, 1) == pytest.approx(0.37, abs=0)

    def test_rejects_bad_count(self):
        with pytest.raises(ConfigError):
            repeated_soundness(0.5, 0)


class TestExecutable:
    def test_k1_returns_base(self):
        base = copier_base()
        assert parallel_repeat(base, 1) is base

    def test_honest_completeness_preserved(self):
        rep = parallel_repeat(copier_base(), 2)
        assert run_protocol(rep) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_k2_optimum_is_single_squared(self, seed):
        g = rng_from(2900, seed)
        psi_v = PureState.from_bits(RegisterLayout.single("W", 1), "0")
        base = InteractiveProtocol(
            psi_v, 2, 1, [random_unitary(4, g), random_unitary(4, g)],
            [np.eye(8, dtype=complex)] * 2)
        single = brute_force_prover_value(base, rng_from(2910, seed),
                                          restarts=8, iters=120)
        doubled = parallel_repeat(base, 2)
        double = brute_force_prover_value(doubled, rng_from(2920, seed),
                                          restarts=8, iters=150)
        assert double == pytest.approx(single ** 2, abs=1e-6)

    def test_k2_committed_game_squares_closed_form(self):
        # The principal-angle value of the doubled protocol is the square of
        # the single-copy one (singular values multiply under tensoring).
        g = rng_from(2950)
        psi_v = PureState.from_bits(RegisterLayout.single("W", 1), "0")
        v1, v2 = random_unitary(4, g), random_unitary(4, g)
        base = InteractiveProtocol(
            psi_v, 2, 1, [v1, v2], [np.eye(8, dtype=complex)] * 2)
        single = optimal_three_message_value(v1, v2, psi_v, 1)
        doubled = parallel_repeat(base, 2)
        frozen = brute_force_prover_value(doubled, rng_from(2951),
                                          restarts=8, iters=150,
                                          final_move_frozen=True)
        assert frozen == pytest.approx(single ** 2, abs=1e-6)

    def test_cap_enforced(self):
        with pytest.raises(QubitCapExceededError):
            parallel_repeat(copier_base(), 5)
