"""Deterministic randomness for the whole package.

Everything random here flows from a single 64-bit seed through a
splitmix64 stream: state advances by the golden-ratio constant and each
output is the standard avalanche mix of the new state.  The generator is
tiny, portable across languages, and fully specified by the constants
below, so any run can be reproduced from its seed alone.

SplitMix64 is from Steele, Lea and Flood, *Fast splittable
pseudorandom number generators*, 2014.

SplitMix64.chances draws up to CHUNK Bernoulli coins at once in one
lane-packed big int; the lane layout below is this module's own.  Draw
i of a chunk owns lane i, bits 128*i .. 128*i + 127 of the int; the low
64 bits hold its word and the high 64 bits are zero between operations.
The lanes start as ((state + G) mod 2^64) * ONE + G * RAMP, masked to
64 bits per lane, where G is the golden-ratio increment, ONE holds 1 in
every lane and RAMP holds i in lane i.  Each mix64 round is then one
shift, one AND with LOW (2^64 - 1 in every lane), one XOR, one multiply
and one AND over the whole chunk.  No carry or borrow ever crosses a lane:

- a lane's start value is below 2^64 + G * CHUNK < 2^128;
- a right shift moves the next lane's low bits only into this lane's
  high half, which the AND with LOW clears;
- a 64-bit word times a 64-bit constant is below 2^128;
- the coin word (2^64 + bar - 1) - z lies in [0, 2^65), because the bar
  is clamped into [0, 2^64], so it borrows from nothing.

The coin is bit 64 of that word: 1 exactly when z < bar, which is the
scalar test (z >> 11) < p * 2^53 with bar = ceil(p * 2^53) << 11.
"""

from __future__ import annotations

import functools
import math

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

CHUNK = 4096  # draws per big int: 64 KB a lane-packed int


@functools.cache
def _lanes() -> tuple[int, int, int]:
    """(ONE, LOW, G * RAMP) over CHUNK lanes, 64 KB each, built at the
    first chances() call, so a process that draws no coins holds none."""
    one = int.from_bytes((b"\x01" + bytes(15)) * CHUNK, "little")
    ramp = b"".join((i * _GOLDEN).to_bytes(16, "little") for i in range(CHUNK))
    return one, one * _MASK, int.from_bytes(ramp, "little")


def mix64(z: int) -> int:
    """splitmix64 finalizer: avalanche a 64-bit value."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def keyed_u64(seed: int, index: int) -> int:
    """The index-th output of the splitmix64 stream seeded with seed.

    Pure function of (seed, index); used where the contract is one draw
    per position, e.g. the sequential engine's random policy keyed by
    (seed, move index).
    """
    return mix64((seed + (index + 1) * _GOLDEN) & _MASK)


class SplitMix64:
    """Sequential form of the same stream: next_u64() yields output i on call i."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return mix64(self._state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling.

        Works for arbitrarily large n by concatenating 64-bit words, so
        it can draw uniform ranks over huge composition spaces.
        """
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        if n == 1:
            return 0
        bits = (n - 1).bit_length()
        words = (bits + 63) // 64
        while True:
            v = 0
            for _ in range(words):
                v = (v << 64) | self.next_u64()
            v &= (1 << bits) - 1
            if v < n:
                return v

    def chance(self, p: float) -> bool:
        """Bernoulli draw with probability p, using one 53-bit draw."""
        return self.chances(p, 1)[0] == 1

    def chances(self, p: float, count: int) -> bytes:
        """count Bernoulli draws with probability p, one byte (0 or 1) each.

        Entry i is 1 exactly when the i-th of count chance(p) calls would
        be True, and the stream advances by count draws.  count is at
        most CHUNK: the draws are computed in the lanes of one big int
        (see the module docstring), and a longer run is drawn in chunks.
        """
        if not 0 <= count <= CHUNK:
            raise ValueError(f"chances() draws 0 to {CHUNK} coins, not {count}")
        f = p * (1 << 53)
        if not f > 0:  # p <= 0 or NaN: no 53-bit draw is below it
            bar = 0
        elif f >= 1 << 53:
            bar = 1 << 64
        else:
            bar = math.ceil(f) << 11
        drop = 128 * (CHUNK - count)
        one, low, step = _lanes()
        one, low = one >> drop, low >> drop
        step &= (1 << 128 * count) - 1
        z = (((self._state + _GOLDEN) & _MASK) * one + step) & low
        self._state = (self._state + count * _GOLDEN) & _MASK
        z = ((z ^ ((z >> 30) & low)) * _MIX1) & low
        z = ((z ^ ((z >> 27) & low)) * _MIX2) & low
        z ^= (z >> 31) & low
        top = (1 << 64) + bar - 1
        return (((top * one - z) >> 64) & one).to_bytes(16 * count, "little")[::16]


def derive_seed(seed: int, *keys: int) -> int:
    """Deterministically derive an independent sub-seed from seed and keys.

    Used to hand each trial / instance its own stream without the streams
    overlapping: derive_seed(s, i) != derive_seed(s, j) for i != j in
    practice (full-avalanche mixing of every key).
    """
    s = mix64(seed)
    for k in keys:
        s = mix64(s ^ mix64(k & _MASK) ^ _GOLDEN)
    return s
