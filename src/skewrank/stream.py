"""The seeded PCG64 stream behind every sampled check.

`Stream(seed).integers(low, high, size)` returns, call after call, what
numpy's `Generator(PCG64(seed)).integers(low, high, size)` returns for
int64 output and 1 <= high - low <= 2^32, without importing numpy's
random package and, through it, OpenSSL.  The stream is defined here,
so reports do not depend on numpy's Generator algorithms:

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
  (high - low), and returns low + (m >> 32).  A range of one value
  draws no word.
"""

from __future__ import annotations

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


def _output(state: int) -> int:
    """XSL-RR 128/64 of one LCG state."""
    x = (state >> 64 ^ state) & _MASK64
    rot = state >> 122
    return (x >> rot | x << (64 - rot)) & _MASK64


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


def _words(state: int, inc: int, count: int) -> np.ndarray:
    """The 2 * count uint32 words, as uint64, of the next count outputs
    after `state`.  State j + k is state j under the k-step map
    s -> A_k s + C_k, so each doubling fills states k + 1 .. 2k from
    states 1 .. k by one vectorised map, then squares the map."""
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
    return words


def _advance(state: int, inc: int, steps: int) -> int:
    """The LCG state `steps` steps after `state`, by binary powering of the step map."""
    mult, add = _MULTIPLIER, inc
    acc_mult, acc_add = 1, 0
    while steps:
        if steps & 1:
            acc_mult, acc_add = acc_mult * mult & _MASK128, (acc_add * mult + add) & _MASK128
        mult, add = mult * mult & _MASK128, (mult * add + add) & _MASK128
        steps >>= 1
    return (acc_mult * state + acc_add) & _MASK128


class Stream:
    """The PCG64 stream of one seed, drawn from in turn by every caller
    that shares it, as from one numpy Generator."""

    def __init__(self, seed: int):
        initstate, initseq = _seed_state(seed)
        self._inc = (initseq << 1 | 1) & _MASK128
        self._state = (((self._inc + initstate) & _MASK128) * _MULTIPLIER + self._inc) & _MASK128
        self._half: int | None = None  # the high word of the last output, not yet drawn

    def _peek(self, count: int) -> np.ndarray:
        """The next `count` words, as uint64, without drawing them."""
        head = [] if self._half is None else [self._half]
        rest = count - len(head)
        if rest <= 0:
            return np.array(head[:count], dtype=np.uint64)
        words = _words(self._state, self._inc, (rest + 1) // 2)
        return np.concatenate([np.array(head, dtype=np.uint64), words])[:count]

    def _skip(self, count: int) -> None:
        """Draw `count` words and drop them."""
        if count and self._half is not None:
            self._half, count = None, count - 1
        if count:
            self._state = _advance(self._state, self._inc, (count + 1) // 2)
            if count % 2:
                self._half = _output(self._state) >> 32

    def _take(self, count: int) -> np.ndarray:
        words = self._peek(count)
        self._skip(count)
        return words

    def _bounded(self, span: int, count: int) -> np.ndarray:
        """`count` draws from [0, span) by Lemire's rule, all with one span.

        Each round draws one word per value still missing and keeps the
        accepted ones, in order; the last word of the last round is
        accepted, so no word past the final value is drawn.
        """
        if span == 1:
            return np.zeros(count, dtype=np.uint64)
        threshold, parts = np.uint64((1 << 32) % span), []
        while count:
            m = self._take(count) * np.uint64(span)
            m = m[(m & _LOW32) >= threshold]
            parts.append(m >> _SHIFT32)
            count -= len(m)
        return np.concatenate(parts)

    def _bounded_each(self, spans: np.ndarray) -> np.ndarray:
        """One draw from [0, span) per entry of a uint64 array of spans,
        in order, by Lemire's rule.

        Each pass maps the next words to the remaining entries at once,
        keeps the values before the first rejected word, and draws that
        entry on its own before the next pass.
        """
        out = np.zeros(len(spans), dtype=np.uint64)
        active = np.flatnonzero(spans > 1)  # a span of 1 draws no word
        spans = spans[active]
        thresholds = np.uint64(1 << 32) % spans
        values = np.empty(len(spans), dtype=np.uint64)
        done = 0
        while done < len(spans):
            m = self._peek(len(spans) - done) * spans[done:]
            accepted = (m & _LOW32) >= thresholds[done:]
            good = len(m) if accepted.all() else int(accepted.argmin())
            values[done : done + good] = m[:good] >> _SHIFT32
            self._skip(good)
            done += good
            if done < len(spans):
                values[done] = self._bounded(int(spans[done]), 1)[0]
                done += 1
        out[active] = values
        return out

    def integers(self, low, high, size) -> np.ndarray:
        """int64 draws from [low, high) of shape `size`, low and high
        broadcast against it, as Generator.integers(low, high, size)
        draws them: in C order, 1 <= high - low <= 2^32 everywhere."""
        size = (size,) if isinstance(size, (int, np.integer)) else tuple(size)
        lows = np.broadcast_to(np.asarray(low, dtype=np.int64), size)
        spans = (np.broadcast_to(np.asarray(high, dtype=np.int64), size) - lows).ravel()
        if not ((spans >= 1) & (spans <= 1 << 32)).all():
            raise ValueError(f"every range high - low must lie in [1, 2^32], got {low}, {high}")
        if not spans.size:
            return np.zeros(size, dtype=np.int64)
        spans = spans.astype(np.uint64)
        if (spans == spans[0]).all():
            draws = self._bounded(int(spans[0]), len(spans))
        else:
            draws = self._bounded_each(spans)
        return lows + draws.astype(np.int64).reshape(size)
