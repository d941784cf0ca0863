"""Seeded random generation of states and unitaries.

Streams are derived from a master seed by spawn keys, so independent trials
produce identical results regardless of execution order.
"""

from __future__ import annotations

import bisect

import numpy as np

from qpzk.core.registers import RegisterLayout
from qpzk.core.states import MixedState, PureState


def rng_from(seed, *spawn_key: int) -> np.random.Generator:
    """Generator for (seed, spawn_key...); deterministic and order-free."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in spawn_key))
    return np.random.default_rng(ss)


def accept_bit(p: float, rng) -> int:
    """One Bernoulli(p) outcome: 1 if a uniform draw falls below p.

    `rng` is a Generator or a ScalarDraws reader."""
    return 1 if rng.random() < p else 0


def accept_all(p, rng: np.random.Generator) -> bool:
    """Whether Bernoulli(p[i]) checks i = 0, 1, ... all pass, drawn in
    order and stopped at the first failure: the loop `all(accept_bit(x,
    rng) for x in p)` made as one sized draw of a PCG64 Generator, after
    which `rng` is where that loop leaves it."""
    p = np.asarray(p, dtype=float)
    start = rng.bit_generator.state
    failed = np.flatnonzero(rng.random(p.size) >= p)
    if failed.size:
        _seek(rng.bit_generator, start, int(failed[0]) + 1,
              bool(start["has_uint32"]), start["uinteger"])
    return not failed.size


# Raw words read from the generator at a time by the scalar draws.
_BLOCK = 1024
# Trials that bulk callers evaluate at a time; bounds their arrays.
BLOCK_TRIALS = 1024


class ScalarDraws:
    """Scalar draws of a PCG64 Generator, read from blocks of raw words.

    Inside `with ScalarDraws(rng) as draws`, `draws.random()`,
    `draws.bit()` and `draws.index(cdf)` return exactly what
    `rng.random()`, `int(rng.integers(2))` and `rng.choice(len(p), p=p)`
    (with `cdf = choice_cdf(p)`) would, in any interleaving. On exit, also
    on an exception, `rng` is left in the state those scalar calls would
    have left it in. `rng` itself must not be drawn from inside the block.

    `peek(pattern, trials)` gives the values of many such calls at once,
    for trials that each make the `random()` and `bit()` calls of one
    pattern, and `take(k)` then makes the calls of the first k of them;
    they can be interleaved with the scalar calls.

    Which words a scalar call uses is fixed by numpy's PCG64: `random()`
    takes one 64-bit word w and returns (w >> 11) * 2**-53; `integers(2)`
    takes bit 31 of a 32-bit half-word, the low half of a fresh word first,
    keeping the high half (`has_uint32`, `uinteger`) for the next call
    (Lemire's bounded draw never rejects for a range of two); `choice`
    with `p` takes one `random()` and searches numpy's cdf to the right.
    """

    def __init__(self, rng: np.random.Generator):
        bitgen = rng.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise TypeError(f"ScalarDraws reads PCG64 streams, not {type(bitgen).__name__}")
        self._bitgen = bitgen
        self._start = bitgen.state
        self._has_half = bool(self._start["has_uint32"])
        self._half = int(self._start["uinteger"])
        self._block = np.empty(0, dtype=np.uint64)  # words read, from _pos on unused
        self._words: list[int] = []  # _block as ints for the scalar calls, or [] until needed
        self._pos = 0
        self._read_before = 0  # words used before the current block
        self._peeked = None

    def __enter__(self) -> "ScalarDraws":
        return self

    def __exit__(self, *exc) -> None:
        _seek(self._bitgen, self._start, self._read_before + self._pos,
              self._has_half, self._half)

    def _upcoming(self, n: int) -> np.ndarray:
        """The next n unused words, reading more into the block as needed."""
        end = self._pos + n
        if end > len(self._block):
            more = self._bitgen.random_raw(max(_BLOCK, end - len(self._block)))
            self._read_before += self._pos
            self._block = np.concatenate((self._block[self._pos:], more))
            self._words = []
            self._pos, end = 0, n
        return self._block[self._pos:end]

    def _word(self) -> int:
        if self._pos >= len(self._words):
            self._upcoming(1)
            self._words = self._block.tolist()
        word = self._words[self._pos]
        self._pos += 1
        return word

    def random(self) -> float:
        """`rng.random()`."""
        return (self._word() >> 11) * 2.0 ** -53

    def bit(self) -> int:
        """`int(rng.integers(2))`."""
        if self._has_half:
            self._has_half = False
            return self._half >> 31
        word = self._word()
        self._has_half = True
        self._half = word >> 32
        return (word >> 31) & 1

    def index(self, cdf: list[float]) -> int:
        """`rng.choice(len(p), p=p)`, given `cdf = choice_cdf(p)`."""
        return bisect.bisect_right(cdf, self.random())

    def peek(self, pattern, trials: int) -> np.ndarray:
        """(trials, len(pattern)) floats: what the next `trials` trials'
        calls would return, each trial calling `bit()` where `pattern` is
        true and `random()` where it is false, in order. Makes no call;
        `take` makes them."""
        is_bit = np.tile(np.asarray(pattern, dtype=bool), trials)
        # A bit call reads the buffered half when an odd number of bit
        # calls, counting a half buffered now, came before it.
        buffered = is_bit & ((np.cumsum(is_bit) - is_bit + self._has_half) % 2 == 1)
        # Index of the word each call reads (for a buffered bit, of the
        # word read last before it).
        word_of = np.cumsum(~buffered) - 1
        read = int(word_of[-1]) + 1 if word_of.size else 0
        # Index 0 stands in before the first word; only buffered bits,
        # whose values are set below, have no word read before them.
        words = self._upcoming(max(read, 1))[np.maximum(word_of, 0)]
        values = (words >> 11).astype(float) * 2.0 ** -53
        bits = np.flatnonzero(is_bit)
        bit_words = words[bits]
        # A buffered bit is the high half of the previous bit call's word,
        # or of the half buffered now.
        high = np.empty_like(bit_words)
        high[1:] = bit_words[:-1] >> 32
        high[:1] = self._half
        from_buffer = buffered[bits]
        values[bits] = np.where(from_buffer, high >> 31, (bit_words >> 31) & 1)
        # The buffered half after each bit call (numpy keeps a used one).
        halves = np.where(from_buffer, high, bit_words >> 32)
        self._peeked = (len(pattern), bits, from_buffer, halves, word_of)
        return values.reshape(trials, len(pattern))

    def take(self, trials: int) -> None:
        """Make the calls of the first `trials` trials of the last `peek`."""
        if trials == 0:
            return
        width, bits, from_buffer, halves, word_of = self._peeked
        self._peeked = None
        calls = trials * width
        last = np.searchsorted(bits, calls) - 1  # the last bit call made
        if last >= 0:
            # It leaves a half buffered iff it read a fresh word.
            self._has_half = not from_buffer[last]
            self._half = int(halves[last])
        self._pos += int(word_of[calls - 1]) + 1

    def blocks(self, pattern, trials: int):
        """`peek` and `take` over `trials` trials, BLOCK_TRIALS at a time;
        yields each block's values."""
        for start in range(0, trials, BLOCK_TRIALS):
            n = min(BLOCK_TRIALS, trials - start)
            values = self.peek(pattern, n)
            self.take(n)
            yield values


def _seek(bitgen: np.random.PCG64, start: dict, words: int, has_half: bool,
          half: int) -> None:
    """Set `bitgen` to `words` raw words past state `start`, with the given
    buffered half-word (`advance` clears it)."""
    bitgen.state = start
    bitgen.advance(words)
    state = bitgen.state
    state["has_uint32"] = int(has_half)
    state["uinteger"] = half
    bitgen.state = state


def choice_cdf(p) -> list[float]:
    """The cdf `rng.choice` searches for probabilities `p`."""
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return q


def random_pure_state(layout: RegisterLayout, rng: np.random.Generator) -> PureState:
    """Haar-random pure state: normalized complex Gaussian vector."""
    dim = layout.dim
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(v / np.linalg.norm(v), layout)


def random_amplitudes(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(layout: RegisterLayout, rng: np.random.Generator, rank: int | None = None) -> MixedState:
    """Random full- or fixed-rank density matrix (partial trace of a Haar state)."""
    dim = layout.dim
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return MixedState(m / m.trace(), layout)


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Rank-`rank` orthogonal projector with Haar-random range."""
    u = random_unitary(dim, rng)
    cols = u[:, :rank]
    return cols @ cols.conj().T
