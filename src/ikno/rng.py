"""Deterministic 64-bit generator (splitmix64), pinned bit-exactly.

Every stochastic choice in the library (dataset generation, parameter
initialization, randomized verification suites) flows through this
generator so that identical seeds reproduce identical bytes on every
platform.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

__all__ = ["Rng64", "splitmix64"]


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 update; returns (new_state, output)."""
    state = (state + _GAMMA) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return state, (z ^ (z >> 31)) & _MASK


class Rng64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state, out = splitmix64(self._state)
        return out

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        # 53 mantissa bits -> uniform double in [0, 1)
        u = self.next_u64() >> 11
        return lo + (hi - lo) * (u * (1.0 / (1 << 53)))

    def uniform_array(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """The next prod(shape) draws of :meth:`uniform`, bit for bit, in one
        wrapping uint64 pass: after k steps the state is seed + k * gamma
        mod 2^64."""
        n = int(np.prod(shape))
        z = np.uint64(self._state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        self._state = (self._state + n * _GAMMA) & _MASK
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        u = (z ^ (z >> np.uint64(31))) >> np.uint64(11)
        return (lo + (hi - lo) * (u * (1.0 / (1 << 53)))).reshape(shape)

    def integer(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (unbiased)."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items: list) -> None:
        """Fisher-Yates in place."""
        for i in range(len(items) - 1, 0, -1):
            j = self.integer(i + 1)
            items[i], items[j] = items[j], items[i]

    def child(self, index: int) -> "Rng64":
        """Deterministic per-sample split: splitmix64 of seed XOR index."""
        _, out = splitmix64(self._state ^ (index & _MASK))
        return Rng64(out)
