"""The stream of `numpy.random.default_rng(seed)`, in the standard library.

`default_rng(seed)` hashes the seed's 32-bit words into a pool of four
words (numpy's `SeedSequence`), draws a 128-bit state and increment from
the pool, and runs PCG64: a 128-bit linear congruential generator whose
64-bit outputs are the XSL-RR permutation of its state (O'Neill, "PCG: a
family of simple fast space-efficient statistically good algorithms for
random number generation", 2014). `DefaultRNG` replays that stream bit for
bit, through the `Generator` calls that the numerical verbs make, so that
they run without numpy: `integers` and `uniform` for the algebra law check
of `deform verify`, and `random`, `uniform`, `normal` and `integers` for
`act verify`.
`normal` is numpy's ziggurat (Marsaglia and Tsang, J. Stat. Softw. 5(8),
2000), replayed from numpy's tables in `ziggurat`.
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import cache, lru_cache

MASK32 = 0xFFFFFFFF
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1

# SeedSequence's hash constants and pool size
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# PCG's default 128-bit multiplier
MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

INVERSE = pow(MULTIPLIER, -1, 1 << 128)

# `DefaultRNG` makes its outputs BATCH at a time from one big-integer product,
# each state in a slot of SLOT_WORDS 64-bit words (`_batch_steps`)
BATCH = 256
SLOT_WORDS = 5
SLOT_BYTES = 8 * SLOT_WORDS
MASK53 = (1 << 53) - 1
DOUBLE_WORD = (1 << 64) + 1  # x * DOUBLE_WORD is x next to a copy of itself
# the top byte b of a state -> the rotation r = b >> 2 of its output, and r + 11
_ROTATIONS = bytes(b >> 2 for b in range(256))
_SHIFTS = bytes((b >> 2) + 11 for b in range(256))


def _hashmix(value: int, const: int, mult: int = MULT_A) -> tuple[int, int]:
    """(hashed value, next hash constant), in uint32 arithmetic."""
    const_next = const * mult & MASK32
    value = (value ^ const) * const_next & MASK32
    return value ^ value >> 16, const_next


def _mix(x: int, y: int) -> int:
    result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
    return result ^ result >> 16


def _pool(seed: int) -> list[int]:
    """SeedSequence(seed).pool: the seed's little-endian 32-bit words (one
    word 0 for seed 0) mixed into four words; words past the fourth are
    mixed into every pool word."""
    words = [0] if seed == 0 else []
    while seed:
        words.append(seed & MASK32)
        seed >>= 32
    const = INIT_A
    pool = []
    for i in range(POOL_SIZE):
        value, const = _hashmix(words[i] if i < len(words) else 0, const)
        pool.append(value)
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in words[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    return pool


@cache
def _ziggurat():
    """The tables of numpy's standard-normal ziggurat, loaded on first use."""
    from . import ziggurat

    return ziggurat.KI, ziggurat.WI, ziggurat.FI, ziggurat.NOR_R, -ziggurat.NOR_INV_R


@lru_cache(maxsize=16)
def _batch_steps(inc: int) -> tuple[int, int]:
    """(A, C) for BATCH steps of the generator with increment inc: slot j
    (SLOT_BYTES bytes, from the low end) holds a^(j+1) and c_(j+1) mod
    2^128, where the state j + 1 steps after s is a^(j+1) s + c_(j+1),
    c_(j+1) = inc (a^j + ... + a + 1). Each slot of s A + C is below 2^257,
    so it carries nothing into the next, and its low 128 bits are that
    state."""
    a, c, mults, incs = 1, 0, [], []
    for _ in range(BATCH):
        a = a * MULTIPLIER & MASK128
        c = c * MULTIPLIER + inc & MASK128
        mults.append(a.to_bytes(SLOT_BYTES, "little"))
        incs.append(c.to_bytes(SLOT_BYTES, "little"))
    return int.from_bytes(b"".join(mults), "little"), int.from_bytes(b"".join(incs), "little")


class DefaultRNG:
    """`numpy.random.default_rng(seed)` for a seed >= 0, with the draws of
    `Generator.integers(low, high)` (int64, 1 <= high - low <= 2^32),
    `Generator.uniform(low, high, k)`, `Generator.random(k)` and
    `Generator.normal(size=k)`. Every float draw takes a whole 64-bit
    output, and leaves any 32-bit half that `integers` kept for the next
    32-bit draw.

    The 64-bit outputs are made BATCH at a time (`_refill`) and drawn in
    order; `_state` is the generator's state after the last
    output drawn, numpy's `bit_generator.state["state"]["state"]`."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        # SeedSequence.generate_state(4, uint64): eight words cycled from the
        # pool and hashed, each pair read as a little-endian 64-bit word
        pool, const, words = _pool(seed), INIT_B, []
        for i in range(8):
            value, const = _hashmix(pool[i % POOL_SIZE], const, MULT_B)
            words.append(value)
        u64 = [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]
        # pcg64_set_seed and pcg_setseq_128_srandom_r: the first word of each
        # pair is the high half; two LCG steps from state 0, adding the seed between
        state, seq = u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]
        self._inc = (seq << 1 | 1) & MASK128
        self._made = (self._inc + state) * MULTIPLIER + self._inc & MASK128  # the state after the last output made
        self._refill()  # the outputs made ahead, and the index of the next one to draw
        self._half = None  # the upper half of a 64-bit output, kept for the next 32-bit draw

    @property
    def _state(self) -> int:
        """The state after the last output drawn: the state after the last
        one made, stepped back over those not yet drawn."""
        state = self._made
        for _ in range(BATCH - self._pos):
            state = (state - self._inc) * INVERSE & MASK128
        return state

    def _refill(self) -> None:
        """Make the next BATCH outputs. The output of a state is XSL-RR: its
        high and low 64-bit halves xored, x, rotated right by its top 6 bits,
        r. The states come from one product (`_batch_steps`), every x from one
        xor of big integers, and r and r + 11 from the states' top bytes by
        `bytes.translate`. The draws finish each output: rotating x right by
        r is (x (2^64 + 1)) >> r cut to 64 bits, and its top 53 bits, the
        uniform's, are (x (2^64 + 1)) >> (r + 11) cut to 53."""
        mults, incs = _batch_steps(self._inc)
        raw = (self._made * mults + incs).to_bytes(SLOT_BYTES * BATCH, "little")
        words = array("Q", raw)  # 64-bit words in the machine's byte order
        if sys.byteorder == "big":
            words.byteswap()
        lo, hi = words[0::SLOT_WORDS], words[1::SLOT_WORDS]
        self._made = hi[-1] << 64 | lo[-1]
        xor = int.from_bytes(lo.tobytes(), sys.byteorder) ^ int.from_bytes(hi.tobytes(), sys.byteorder)
        self._xs = array("Q", xor.to_bytes(8 * BATCH, sys.byteorder)).tolist()
        top = raw[15::SLOT_BYTES]  # the top byte of each state
        self._rotations, self._shifts = top.translate(_ROTATIONS), top.translate(_SHIFTS)
        self._pos = 0

    def _next64(self) -> int:
        if self._pos == BATCH:
            self._refill()
        pos = self._pos
        self._pos = pos + 1
        return self._xs[pos] * DOUBLE_WORD >> self._rotations[pos] & MASK64

    def _next32(self) -> int:
        if self._half is not None:
            out, self._half = self._half, None
            return out
        x = self._next64()
        self._half = x >> 32
        return x & MASK32

    def integers(self, low: int, high: int) -> int:
        """An integer in [low, high): Lemire's multiply-and-reject on 32-bit
        draws. A single value draws nothing."""
        span = high - low
        if not 1 <= span <= 1 << 32:
            raise ValueError("high - low must be in [1, 2^32]")
        if span == 1:
            return low
        m = self._next32() * span
        if m & MASK32 < span:
            threshold = (1 << 32) % span
            while m & MASK32 < threshold:
                m = self._next32() * span
        return low + (m >> 32)

    def uniform(self, low: float, high: float, k: int) -> list[float]:
        """k floats low + (high - low) u, u a draw of `random`."""
        scale = high - low
        return [low + scale * u for u in self.random(k)]

    def random(self, k: int) -> list[float]:
        """k draws of numpy's `next_double`: the top 53 bits of a 64-bit
        output, times 2^-53."""
        out = []
        while k:
            if self._pos == BATCH:
                self._refill()
            pos = self._pos
            end = min(pos + k, BATCH)
            xs, shifts = self._xs[pos:end], self._shifts[pos:end]
            out += [(x * DOUBLE_WORD >> r & MASK53) * 2.0 ** -53 for x, r in zip(xs, shifts)]
            self._pos = end
            k -= end - pos
        return out

    def normal(self, k: int) -> list[float]:
        """k draws of `Generator.normal()`: numpy's `random_standard_normal`,
        then 0.0 + z as `loc + scale * z` makes it (so -0.0 reads 0.0).

        An output r gives a box idx = r & 0xff, a sign bit and a 52-bit
        magnitude rabs; z = +-rabs WI[idx] is taken when rabs < KI[idx] (most
        draws). Otherwise the base box idx = 0 draws from the tail beyond
        NOR_R, and any other box takes z when a uniform height under the
        box's edge lies below the density exp(-z^2/2); a rejected draw starts
        over with a new output."""
        ki, wi, fi, nor_r, minus_inv_r = _ziggurat()
        random, log1p, exp = self.random, math.log1p, math.exp
        xs, rotations, pos, out = self._xs, self._rotations, self._pos, []
        for _ in range(k):
            while True:
                if pos == BATCH:
                    self._refill()
                    xs, rotations, pos = self._xs, self._rotations, 0
                r = xs[pos] * DOUBLE_WORD >> rotations[pos] & MASK64
                pos += 1
                idx = r & 0xFF
                rabs = r >> 9 & 0xFFFFFFFFFFFFF
                x = rabs * wi[idx]
                if r & 0x100:
                    x = -x
                if rabs < ki[idx]:
                    break
                self._pos = pos  # the uniforms below are the next draws
                if idx == 0:
                    while True:
                        xx = minus_inv_r * log1p(-random(1)[0])
                        yy = -log1p(-random(1)[0])
                        if yy + yy > xx * xx:
                            x = -(nor_r + xx) if rabs >> 8 & 1 else nor_r + xx
                            break
                    xs, rotations, pos = self._xs, self._rotations, self._pos
                    break
                accept = (fi[idx - 1] - fi[idx]) * random(1)[0] + fi[idx] < exp(-0.5 * x * x)
                xs, rotations, pos = self._xs, self._rotations, self._pos
                if accept:
                    break
            out.append(0.0 + x)
        self._pos = pos
        return out
