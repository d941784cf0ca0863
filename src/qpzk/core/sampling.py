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


# Raw words read from the generator at a time.
_BLOCK = 1024


class ScalarDraws:
    """Scalar draws of a PCG64 Generator, read from blocks of raw words.

    Inside `with ScalarDraws(rng) as draws`, `draws.random()`,
    `draws.bit()` and `draws.index(cdf)` return exactly what
    `rng.random()`, `int(rng.integers(2))` and `rng.choice(len(p), p=p)`
    (with `cdf = choice_cdf(p)`) would, in any interleaving. On exit, also
    on an exception, `rng` is left in the state those scalar calls would
    have left it in. `rng` itself must not be drawn from inside the block.

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
        self._words: list[int] = []
        self._pos = 0
        self._read_before = 0  # words in the blocks before the current one

    def __enter__(self) -> "ScalarDraws":
        return self

    def __exit__(self, *exc) -> None:
        bitgen = self._bitgen
        bitgen.state = self._start
        bitgen.advance(self._read_before + self._pos)
        state = bitgen.state
        state["has_uint32"] = int(self._has_half)
        state["uinteger"] = self._half
        bitgen.state = state

    def _word(self) -> int:
        if self._pos == len(self._words):
            self._read_before += len(self._words)
            self._words = self._bitgen.random_raw(_BLOCK).tolist()
            self._pos = 0
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
