"""The stream of `numpy.random.default_rng(seed)`, in the standard library.

`default_rng(seed)` hashes the seed's 32-bit words into a pool of four
words (numpy's `SeedSequence`), draws a 128-bit state and increment from
the pool, and runs PCG64: a 128-bit linear congruential generator whose
64-bit outputs are the XSL-RR permutation of its state (O'Neill, "PCG: a
family of simple fast space-efficient statistically good algorithms for
random number generation", 2014). `DefaultRNG` replays that stream bit for
bit, but only through the two `Generator` calls the algebra law check of
`deform verify` makes, so that verb runs without numpy.
"""

from __future__ import annotations

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


class DefaultRNG:
    """`numpy.random.default_rng(seed)` for a seed >= 0, with the draws of
    `Generator.integers(low, high)` (int64, 1 <= high - low <= 2^32) and
    `Generator.uniform(low, high, k)`."""

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
        self._state = (self._inc + state) * MULTIPLIER + self._inc & MASK128
        self._half = None  # the upper half of a 64-bit output, kept for the next 32-bit draw

    def _next64(self) -> int:
        self._state = state = self._state * MULTIPLIER + self._inc & MASK128
        rot, x = state >> 122, (state >> 64 ^ state) & MASK64
        return (x >> rot | x << (64 - rot)) & MASK64

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
        """k floats low + (high - low) u, u a 53-bit draw in [0, 1); a 32-bit
        half kept by `integers` stays kept."""
        scale = high - low
        return [low + scale * ((self._next64() >> 11) * 2.0 ** -53) for _ in range(k)]
