"""Seeded random generation of unitaries, amplitudes and projectors (the
random states are built in `qpzk.core.states`).

Streams are derived from a master seed by spawn keys, so independent trials
produce identical results regardless of execution order.
"""

from __future__ import annotations

import numpy as np


def rng_from(seed, *spawn_key: int) -> np.random.Generator:
    """Generator for (seed, spawn_key...); deterministic and order-free."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in spawn_key))
    return np.random.default_rng(ss)


def accept_bit(p: float, rng) -> int:
    """One Bernoulli(p) outcome: 1 if a uniform draw falls below p."""
    return 1 if rng.random() < p else 0


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return q


def random_amplitudes(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Rank-`rank` orthogonal projector with Haar-random range."""
    u = random_unitary(dim, rng)
    cols = u[:, :rank]
    return cols @ cols.conj().T
