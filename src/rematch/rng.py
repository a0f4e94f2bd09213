"""Counter-based random number generation.

Everything stochastic in this package flows through the splitmix64
finalizer used in pure counter mode: a 64-bit key plus a counter is
hashed to a 64-bit word, with no generator state to carry around.
Trial ``i`` of a Monte Carlo run derives its own sub-seed via
``sub_seed(seed, i)``, so trials, which run serially, depend on no
shared state, and any single trial can be replayed in isolation.

A sample graph realizes edge e iff ``uniform01(seed, e) < p_e``.  No
edge's word depends on another's, so :func:`draw_mask` computes all m of
them at once on big ints split into 128-bit lanes, lane e at bit 128e,
from the table :func:`lane_table` builds once per instance:

* ``ones`` holds 1 and ``lo`` holds 2^64 - 1 in every lane, ``off``
  holds ``(e + 1) * GAMMA mod 2^64`` in lane e;
* ``thr`` holds ``2^65 + (c_e << 11) - 1`` in lane e, with
  ``c_e = ceil(p_e * 2^53)``.

``(seed * ones + off) & lo`` is every counter word's input, and each
splitmix64 step masks its xor-shift with ``lo`` before the multiply, so
a lane never exceeds 128 bits and nothing carries into its neighbour.
The draw is exact: with k = z >> 11, ``uniform01 < p`` iff ``k * 2^-53
< p`` iff ``k < c`` iff ``z < c << 11``, so bit 65 of lane ``thr - z``
(which lies in [2^64, 2^66), with no borrow) is the hit.  p = 0 gives
c = 0 and never hits, p = 1 gives c = 2^53 and always does.
"""

from __future__ import annotations

import math
import struct
from typing import Sequence

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


def lane_table(ps: Sequence[float]) -> tuple[int, int, int, int, int]:
    """``(ones, lo, off, thr, m)`` for counters 0..m-1 hit with probabilities
    ``ps`` (see the module docstring), built in O(m) through one lane buffer."""
    m = len(ps)
    ones = int.from_bytes((b"\1" + bytes(15)) * m, "little")
    buf = bytearray(16 * m)  # each lane's low word is written, its high word stays 0
    put = struct.Struct("<Q").pack_into
    for c in range(m):
        put(buf, 16 * c, (c + 1) * _GAMMA & _MASK64)
    off = int.from_bytes(buf, "little")
    for c, p in enumerate(ps):
        put(buf, 16 * c, math.ceil(p * 2.0 ** 53))
    thr = (int.from_bytes(buf, "little") << 11) + ((1 << 65) - 1) * ones
    return ones, _MASK64 * ones, off, thr, m


_HIT_DIGITS = bytes.maketrans(b"\0\1", b"01")


def draw_mask(lanes: tuple[int, int, int, int, int], seed: int) -> int:
    """Bit c set iff ``uniform01(seed, c) < ps[c]``, for the ``lane_table(ps)``
    lanes: every counter at once."""
    ones, lo, off, thr, m = lanes
    if not m:
        return 0
    z = ((seed & _MASK64) * ones + off) & lo
    z = ((z ^ (z >> 30)) & lo) * _MIX1 & lo
    z = ((z ^ (z >> 27)) & lo) * _MIX2 & lo
    z = (z ^ (z >> 31)) & lo
    # one byte per lane, 0 or 1, lowest lane first
    hits = (((thr - z) >> 65) & ones).to_bytes(16 * m, "little")[::16]
    return int(hits.translate(_HIT_DIGITS)[::-1], 2)


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
