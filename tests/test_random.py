"""Haar sampling: unitarity, moments, stream determinism, and scalar draws
read from raw generator words."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpzk.core import RegisterLayout, random_pure_state, random_unitary, rng_from
from qpzk.core.sampling import _BLOCK, BLOCK_TRIALS, ScalarDraws, accept_all, accept_bit, choice_cdf


class TestRandomUnitary:
    def test_dim_one_is_a_phase(self):
        u = random_unitary(1, rng_from(0))
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_unitarity(self, dim):
        rng = rng_from(50, dim)
        for _ in range(20):
            u = random_unitary(dim, rng)
            assert np.allclose(u.conj().T @ u, np.eye(dim), atol=1e-9)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            random_unitary(0, rng_from(0))


class TestHaarMoments:
    @pytest.mark.parametrize("qubits,dim", [(1, 2), (2, 4)])
    def test_mean_squared_overlap_is_one_over_d(self, qubits, dim):
        # First Haar moment of |<0|psi>|^2 is 1/d; 3 sigma tolerance.
        lay = RegisterLayout.single("A", qubits)
        rng = rng_from(51, qubits)
        n = 20000
        vals = np.empty(n)
        for i in range(n):
            vals[i] = abs(random_pure_state(lay, rng).amplitudes[0]) ** 2
        mean = vals.mean()
        sigma = vals.std(ddof=1) / np.sqrt(n)
        assert abs(mean - 1 / dim) <= 3 * sigma + 1e-4


class TestStreams:
    def test_same_key_same_stream(self):
        a = random_unitary(4, rng_from(99, 1, 2))
        b = random_unitary(4, rng_from(99, 1, 2))
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = random_unitary(4, rng_from(99, 1, 2))
        b = random_unitary(4, rng_from(99, 1, 3))
        assert not np.allclose(a, b)


# One op is (kind, count): `count` draws of `random`, `bit` or `index`.
_OPS = st.lists(st.tuples(st.sampled_from(["random", "bit", "index"]),
                          st.integers(1, 400)), min_size=1, max_size=12)
# Probabilities with zero entries, first, last and in between.
_WEIGHTS = st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.25, 1.0, 3.0]),
                    min_size=1, max_size=6).filter(lambda w: sum(w) > 0)


def _scalar_and_read(seed, ops, p, half_full):
    """Run `ops` as real scalar calls and through ScalarDraws on two copies
    of one stream; return both draw lists and both generators."""
    scalar, read = rng_from(seed), rng_from(seed)
    if half_full:
        # Leaves the high half of a word buffered on both sides.
        scalar.integers(2)
        read.integers(2)
    cdf = choice_cdf(p)
    expected, got = [], []
    for kind, count in ops:
        for _ in range(count):
            if kind == "random":
                expected.append(scalar.random())
            elif kind == "bit":
                expected.append(int(scalar.integers(2)))
            else:
                expected.append(int(scalar.choice(len(p), p=p)))
    with ScalarDraws(read) as draws:
        for kind, count in ops:
            for _ in range(count):
                if kind == "random":
                    got.append(draws.random())
                elif kind == "bit":
                    got.append(draws.bit())
                else:
                    got.append(draws.index(cdf))
    return expected, got, scalar, read


class TestScalarDraws:
    @given(seed=st.integers(0, 2 ** 32), ops=_OPS, weights=_WEIGHTS,
           half_full=st.booleans())
    def test_matches_scalar_calls(self, seed, ops, weights, half_full):
        p = np.array(weights) / sum(weights)
        expected, got, scalar, read = _scalar_and_read(seed, ops, p, half_full)
        assert got == expected
        assert read.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("half_full", [False, True])
    def test_runs_past_several_blocks(self, half_full):
        p = np.array([0.0, 0.5, 0.0, 0.5])
        ops = [("random", 700), ("bit", 1001), ("index", 600), ("bit", 3),
               ("random", _BLOCK), ("bit", 2 * _BLOCK + 1)]
        expected, got, scalar, read = _scalar_and_read(31, ops, p, half_full)
        assert sum(count for _, count in ops) > 3 * _BLOCK
        assert got == expected
        assert read.bit_generator.state == scalar.bit_generator.state
        assert read.random() == scalar.random()

    def test_zero_probability_entries_never_drawn(self):
        cdf = choice_cdf([0.0, 0.5, 0.0, 0.5, 0.0])
        with ScalarDraws(rng_from(32)) as draws:
            assert {draws.index(cdf) for _ in range(500)} == {1, 3}

    @pytest.mark.parametrize("u", [0.0, 0.25, 0.5, 0.75])
    def test_index_on_a_cdf_step_goes_right(self, u):
        # Measure zero for real draws, so set the uniform by hand: like
        # numpy's searchsorted, a draw equal to a cdf value skips the
        # zero-probability entries that share it.
        cdf = choice_cdf([0.0, 0.5, 0.0, 0.5])
        draws = ScalarDraws(rng_from(34))
        draws.random = lambda: u
        assert draws.index(cdf) == np.searchsorted(cdf, u, side="right")

    def test_other_bit_generators_rejected(self):
        with pytest.raises(TypeError, match="MT19937"):
            ScalarDraws(np.random.Generator(np.random.MT19937(1)))

    def test_exception_inside_leaves_the_stream_synced(self):
        scalar, read = rng_from(33), rng_from(33)
        with pytest.raises(RuntimeError):
            with ScalarDraws(read) as draws:
                draws.random()
                draws.bit()
                raise RuntimeError("stop")
        scalar.random()
        scalar.integers(2)
        assert read.bit_generator.state == scalar.bit_generator.state


# One bulk op is (pattern, trials, kept): peek `trials` trials of `pattern`
# (True marks a bit call), then take the first `kept`; a scalar op is a list
# of calls.
_PATTERNS = st.lists(st.booleans(), min_size=1, max_size=5)
_BULK = st.tuples(_PATTERNS, st.integers(1, 1500), st.integers(0, 1500)).map(
    lambda op: (op[0], op[1], min(op[1], op[2])))
_MIXED = st.lists(st.one_of(_BULK, st.lists(st.booleans(), min_size=1, max_size=40)),
                  min_size=1, max_size=6)


def _scalar_call(rng, is_bit):
    return float(int(rng.integers(2))) if is_bit else rng.random()


def _read_call(draws, is_bit):
    return float(draws.bit()) if is_bit else draws.random()


class TestBulkDraws:
    @given(seed=st.integers(0, 2 ** 32), ops=_MIXED, half_full=st.booleans())
    def test_peeked_trials_match_scalar_calls(self, seed, ops, half_full):
        scalar, read = rng_from(seed), rng_from(seed)
        if half_full:
            scalar.integers(2)
            read.integers(2)
        expected, got = [], []
        with ScalarDraws(read) as draws:
            for op in ops:
                if isinstance(op, tuple):
                    pattern, trials, kept = op
                    values = draws.peek(pattern, trials)
                    assert values.shape == (trials, len(pattern))
                    got.extend(values[:kept].ravel().tolist())
                    draws.take(kept)
                    calls = pattern * kept
                else:
                    calls = op
                    got.extend(_read_call(draws, is_bit) for is_bit in calls)
                expected.extend(_scalar_call(scalar, is_bit) for is_bit in calls)
        assert got == expected
        assert read.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("half_full", [False, True])
    def test_blocks_cover_every_trial(self, half_full):
        scalar, read = rng_from(35), rng_from(35)
        if half_full:
            scalar.integers(2)
            read.integers(2)
        trials = 2 * BLOCK_TRIALS + 1
        with ScalarDraws(read) as draws:
            blocks = list(draws.blocks((True, False, True), trials))
        assert [len(v) for v in blocks] == [BLOCK_TRIALS, BLOCK_TRIALS, 1]
        expected = [_scalar_call(scalar, is_bit)
                    for _ in range(trials) for is_bit in (True, False, True)]
        assert np.concatenate(blocks).ravel().tolist() == expected
        assert read.bit_generator.state == scalar.bit_generator.state


_CHECKS = st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]), max_size=8)


class TestAcceptAll:
    @given(seed=st.integers(0, 2 ** 32),
           runs=st.lists(st.tuples(st.integers(0, 3), _CHECKS), min_size=1, max_size=20))
    def test_matches_the_stopped_scalar_loop(self, seed, runs):
        # Each run first draws some bounded integers, as pqma's subset draw
        # does, which can leave a half-word buffered.
        scalar, sized = rng_from(seed), rng_from(seed)
        for draws, p in runs:
            assert scalar.integers(10, size=draws).tolist() == sized.integers(10, size=draws).tolist()
            assert accept_all(p, sized) == all(accept_bit(x, scalar) for x in p)
            assert sized.bit_generator.state == scalar.bit_generator.state
