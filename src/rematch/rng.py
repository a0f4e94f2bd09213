"""Counter-based random number generation.

Everything stochastic in this package flows through the splitmix64
finalizer used in pure counter mode: a 64-bit key plus a counter is
hashed to a 64-bit word, with no generator state to carry around.
Trial ``i`` of a Monte Carlo run derives its own sub-seed via
``sub_seed(seed, i)``, so trials, which run serially, depend on no
shared state, and any single trial can be replayed in isolation.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """splitmix64 finalizer: bijective avalanche mix of a 64-bit word."""
    z = x & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def counter_value(seed: int, counter: int) -> int:
    """64-bit word for (seed, counter); the core counter-mode primitive."""
    return mix64((seed + (counter + 1) * _GAMMA) & _MASK64)


def sub_seed(seed: int, index: int) -> int:
    """Independent sub-seed for trial ``index`` of a run keyed by ``seed``."""
    return counter_value(seed, index)


def uniform01(seed: int, counter: int) -> float:
    """Uniform draw in [0, 1) with 53 random bits; u < p is exact at p in {0, 1}."""
    return (counter_value(seed, counter) >> 11) * (1.0 / (1 << 53))


class CounterRng:
    """Convenience stateful wrapper advancing a counter over counter_value().

    Used by the instance generators; simulation code calls the pure
    functions directly with explicit counters.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._counter = 0

    def _next(self) -> int:
        v = counter_value(self.seed, self._counter)
        self._counter += 1
        return v

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self._next() >> 11) * (1.0 / (1 << 53))
        return lo + (hi - lo) * u

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self._next() % (hi - lo + 1)

    def choice(self, seq):
        if not seq:
            raise ValueError("empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]
