"""The standard-library stream of `lieactions.pcg64` against numpy's.

`DefaultRNG(seed)` must draw what `numpy.random.default_rng(seed)` draws,
bit for bit, through `integers(low, high)` and `uniform(low, high, k)`:
for seeds of one to many 32-bit words (SeedSequence hashes four into its
pool and mixes the rest in), and for any interleaving of the two calls,
since `integers` draws 32 bits at a time and keeps the upper half of a
64-bit output for its next draw, which `uniform` does not take.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieactions.pcg64 import DefaultRNG

# one word, the edges of one, two and three words, and seeds past the four pool words
EDGE_SEEDS = [0, 1, 1729, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 5, 2**96, 2**128,
              2**128 + 1, 2**160 + 7, 2**200, 10**100]

SEEDS = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64), st.integers(2**128, 2**400))

# ("integers", low, high) with spans 1 to 9 (a span of 7 rejects 4 of every 2^32
# draws, 1 draws nothing), or ("uniform", k)
CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("integers"), st.integers(-5, 5), st.integers(1, 9)).map(
            lambda c: (c[0], c[1], c[1] + c[2])),
        st.tuples(st.just("uniform"), st.integers(0, 6)),
    ),
    max_size=40,
)


def _draws(rng, calls):
    out = []
    for call in calls:
        if call[0] == "integers":
            out.append(int(rng.integers(call[1], call[2])))
        elif isinstance(rng, DefaultRNG):
            out.append(rng.uniform(0.0, 1.0, call[1]))
        else:
            out.append([float(u) for u in rng.uniform(0.0, 1.0, size=call[1])])
    return out


@settings(max_examples=300, deadline=None)
@given(SEEDS, CALLS)
def test_stream_matches_numpy(seed, calls):
    # the closing calls check the state the interleaving left: a kept half, then a 64-bit draw
    calls = calls + [("integers", 0, 7), ("uniform", 2), ("integers", -3, 4)]
    assert _draws(DefaultRNG(seed), calls) == _draws(np.random.default_rng(seed), calls)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_law_check_draws_match_numpy(seed):
    # the calls of `deform verify`'s law check: five uniform times, then
    # numerators in [-3, 4) and denominators in [1, 3)
    calls = [("uniform", 5)] + [("integers", -3, 4), ("integers", 1, 3)] * 500
    assert _draws(DefaultRNG(seed), calls) == _draws(np.random.default_rng(seed), calls)


def test_wide_spans_and_rejections_match_numpy():
    # 2^32 takes a 32-bit draw as it is; 2^31 + 7 rejects almost half of them
    calls = [("integers", 0, 2**32)] * 9 + [("integers", -2**31, 7)] * 200 + [("uniform", 3)]
    assert _draws(DefaultRNG(11), calls) == _draws(np.random.default_rng(11), calls)


def test_uniform_scales_to_its_bounds():
    calls = [(-2.0, 2.0, 4), (0.5, 2.0, 3)]
    ours, ref = DefaultRNG(7), np.random.default_rng(7)
    for low, high, k in calls:
        assert ours.uniform(low, high, k) == [float(u) for u in ref.uniform(low, high, size=k)]


@pytest.mark.parametrize("low,high", [(0, 0), (3, 2), (0, 2**32 + 1)])
def test_integers_outside_the_replayed_spans_is_an_error(low, high):
    with pytest.raises(ValueError):
        DefaultRNG(0).integers(low, high)


def test_negative_seed_is_an_error():
    with pytest.raises(ValueError):
        DefaultRNG(-1)
