"""The seeded PCG64 stream behind every sampled check.

`Stream(seed).integers(low, high, size)` returns, call after call, what
numpy's `Generator(PCG64(seed)).integers(low, high, size)` returns for
one integer range per call, 1 <= high - low <= 2^32, and int64 output,
without importing numpy's random package and, through it, OpenSSL.  The
stream is defined here, so reports do not depend on numpy's Generator
algorithms:

- Seeding.  SeedSequence's pool hash of the seed's 32-bit words, then
  4 uint64 words w0..w3 of its generate_state; PCG's setseq init with
  initstate = w0*2^64 + w1 and initseq = w2*2^64 + w3 (O'Neill, "PCG:
  A Family of Simple Fast Space-Efficient Statistically Good Algorithms
  for Random Number Generation", HMC-CS-2014-0905).
- Outputs.  The 128-bit LCG steps, then XSL-RR 128/64: the xor of the
  state's halves rotated right by its top 6 bits.  A block of outputs
  is computed by jump-ahead doubling on uint64 limbs.
- uint32 sequence.  Each output gives two words, its low half first; a
  half left over by one call is the first word of the next.
- Bounded integers.  Lemire's rule ("Fast Random Integer Generation in
  an Interval", ACM TOMACS 29(1), 2019) maps a word u to
  m = u * (high - low), rejects u while m mod 2^32 < 2^32 mod
  (high - low), and returns low + (m >> 32).  It is the one draw rule:
  a call maps all its words by one range; a range of one value draws no
  word.  A caller that needs two ranges makes two calls.
"""

from __future__ import annotations

import math

import numpy as np

RNG_NAME = "PCG64"

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier

# SeedSequence's hash constants; its pool is 4 words of 32 bits
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

_LOW32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)


def _seed_state(seed: int) -> tuple[int, int]:
    """(initstate, initseq) of the PCG64 stream of a seed >= 0.

    SeedSequence(seed) hashes the seed's 32-bit words, least significant
    first, into a pool of 4 words; generate_state(4, uint64) then gives
    w0..w3, each from two hashed pool words, low half first.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    halves = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        halves.append(value ^ value >> 16)
    w = [halves[2 * k] | halves[2 * k + 1] << 32 for k in range(4)]
    return w[0] << 64 | w[1], w[2] << 64 | w[3]


def _mulhi(x: np.ndarray, c: int) -> np.ndarray:
    """High 64 bits of x * c for uint64 x and a 64-bit constant c, from
    products of 32-bit halves, each below 2^64."""
    x0, x1 = x & _LOW32, x >> _SHIFT32
    c0, c1 = np.uint64(c & _MASK32), np.uint64(c >> 32)
    p00, p01, p10 = x0 * c0, x0 * c1, x1 * c0
    mid = (p00 >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
    return x1 * c1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)


def _affine(hi: np.ndarray, lo: np.ndarray, mult: int, add: int) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) limbs of s * mult + add mod 2^128 for every state s."""
    mh, ml = np.uint64(mult >> 64), np.uint64(mult & _MASK64)
    ah, al = np.uint64(add >> 64), np.uint64(add & _MASK64)
    low = lo * ml + al
    carry = (low < al).astype(np.uint64)
    return _mulhi(lo, mult & _MASK64) + lo * mh + hi * ml + ah + carry, low


def _words(state: int, inc: int, count: int) -> tuple[np.ndarray, int]:
    """The 2 * count uint32 words, as uint64, of the next count outputs
    after `state`, and the state of the last output.  State j + k is
    state j under the k-step map s -> A_k s + C_k, so each doubling fills
    states k + 1 .. 2k from states 1 .. k by one vectorised map, then
    squares the map."""
    hi, lo = np.empty(count, np.uint64), np.empty(count, np.uint64)
    first = (state * _MULTIPLIER + inc) & _MASK128
    hi[0], lo[0] = first >> 64, first & _MASK64
    mult, add, filled = _MULTIPLIER, inc, 1  # the map of `filled` steps
    while filled < count:
        take = min(filled, count - filled)
        stretch = slice(filled, filled + take)
        hi[stretch], lo[stretch] = _affine(hi[:take], lo[:take], mult, add)
        mult, add, filled = mult * mult & _MASK128, (mult * add + add) & _MASK128, filled + take
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    out = x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63))
    words = np.empty(2 * count, np.uint64)
    words[0::2], words[1::2] = out & _LOW32, out >> _SHIFT32
    return words, int(hi[-1]) << 64 | int(lo[-1])


class Stream:
    """The PCG64 stream of one seed, drawn from in turn by every caller
    that shares it, as from one numpy Generator."""

    def __init__(self, seed: int):
        initstate, initseq = _seed_state(seed)
        self._inc = (initseq << 1 | 1) & _MASK128
        self._state = (((self._inc + initstate) & _MASK128) * _MULTIPLIER + self._inc) & _MASK128
        self._half: int | None = None  # the high word of the last output, not yet drawn

    def _take(self, count: int) -> np.ndarray:
        """Draw the next `count` >= 1 words, as uint64."""
        words = np.array([] if self._half is None else [self._half], dtype=np.uint64)
        self._half, rest = None, count - len(words)
        if rest > 0:
            fresh, self._state = _words(self._state, self._inc, (rest + 1) // 2)
            if rest % 2:
                self._half = int(fresh[-1])
            words = np.concatenate([words, fresh[:rest]])
        return words

    def _bounded(self, span: int, count: int) -> np.ndarray:
        """`count` draws from [0, span) by Lemire's rule.

        Each round draws one word per value still missing and keeps the
        accepted ones, in order; the last word of the last round is
        accepted, so no word past the final value is drawn.
        """
        if span == 1 or not count:
            return np.zeros(count, dtype=np.uint64)
        threshold, parts = np.uint64((1 << 32) % span), []
        while count:
            m = self._take(count) * np.uint64(span)
            m = m[(m & _LOW32) >= threshold]
            parts.append(m >> _SHIFT32)
            count -= len(m)
        return np.concatenate(parts)

    def integers(self, low: int, high: int, size) -> np.ndarray:
        """int64 draws from [low, high) of shape `size`, in C order, as
        Generator.integers(low, high, size) draws them for integers
        low and high with 1 <= high - low <= 2^32."""
        if not 1 <= high - low <= 1 << 32:
            raise ValueError(f"the range high - low must lie in [1, 2^32], got {low}, {high}")
        size = (size,) if isinstance(size, (int, np.integer)) else tuple(size)
        if min(size, default=0) < 0:
            raise ValueError("negative dimensions are not allowed")
        return low + self._bounded(high - low, math.prod(size)).astype(np.int64).reshape(size)
