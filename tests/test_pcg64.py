"""The standard-library stream of `lieactions.pcg64` against numpy's.

`DefaultRNG(seed)` must draw what `numpy.random.default_rng(seed)` draws,
bit for bit, through `integers(low, high)`, `uniform(low, high, k)`,
`random(k)` and `normal(k)`: for seeds of one to many 32-bit words
(SeedSequence hashes four into its pool and mixes the rest in), for runs
of draws short and long, within and across the batches of BATCH outputs
that `DefaultRNG` makes at a time, through both rare branches of the
normal ziggurat, and for any interleaving of the calls,
since `integers` draws 32 bits at a time and keeps the upper half of a
64-bit output for its next draw, which the float draws do not take.
"""

import math
from array import array
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieactions import pcg64
from lieactions.pcg64 import BATCH, DefaultRNG

# one word, the edges of one, two and three words, and seeds past the four pool words
EDGE_SEEDS = [0, 1, 1729, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 5, 2**96, 2**128,
              2**128 + 1, 2**160 + 7, 2**200, 10**100]

SEEDS = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64), st.integers(2**128, 2**400))

# ("integers", low, high) with spans 1 to 9 (a span of 7 rejects 4 of every 2^32
# draws, 1 draws nothing), or ("uniform", k), ("random", k) or ("normal", k),
# with k up to a sixth of a batch
CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("integers"), st.integers(-5, 5), st.integers(1, 9)).map(
            lambda c: (c[0], c[1], c[1] + c[2])),
        st.tuples(st.sampled_from(["uniform", "random", "normal"]), st.integers(0, BATCH // 6)),
    ),
    max_size=40,
)


def _draws(rng, calls):
    out = []
    for call in calls:
        if call[0] == "integers":
            out.append(int(rng.integers(call[1], call[2])))
        elif isinstance(rng, DefaultRNG):
            out.append(rng.uniform(0.0, 1.0, call[1]) if call[0] == "uniform" else getattr(rng, call[0])(call[1]))
        elif call[0] == "uniform":
            out.append([float(u) for u in rng.uniform(0.0, 1.0, size=call[1])])
        else:
            out.append(getattr(rng, call[0])(size=call[1]).tolist())
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


def _bits(values: list[float]) -> bytes:
    """The bytes of a list of floats, so that -0.0 and 0.0 differ."""
    return array("d", values).tobytes()


def _state(rng: np.random.Generator) -> tuple[int, int | None]:
    """numpy's 128-bit state and kept 32-bit half, as DefaultRNG keeps them."""
    state = rng.bit_generator.state
    return state["state"]["state"], state["uinteger"] if state["has_uint32"] else None


@pytest.mark.parametrize("k", [1, 90, BATCH - 1, BATCH, BATCH + 1, 3 * BATCH + 5])
def test_random_runs_match_numpy(k):
    ours, ref = DefaultRNG(2**64 + 5), np.random.default_rng(2**64 + 5)
    for _ in range(3):
        assert _bits(ours.random(k)) == ref.random(k).tobytes()
        assert (ours._state, ours._half) == _state(ref)


def test_a_million_draws_of_random_and_normal_match_numpy(monkeypatch):
    # 10^6 normals over four seeds, and as many uniforms, bit for bit. The
    # ziggurat's two rare branches must run: the tail beyond NOR_R (box 0,
    # which calls log1p) and the wedge test of the other boxes (exp).
    hits = {"log1p": 0, "exp": 0}

    def counted(name):
        def f(x):
            hits[name] += 1
            return getattr(math, name)(x)
        return f

    monkeypatch.setattr(pcg64, "math", SimpleNamespace(log1p=counted("log1p"), exp=counted("exp")))
    for seed in (0, 7, 1517, 2**128 + 1):
        ours, ref = DefaultRNG(seed), np.random.default_rng(seed)
        assert _bits(ours.normal(250_000)) == ref.normal(size=250_000).tobytes()
        assert _bits(ours.random(250_000)) == ref.random(250_000).tobytes()
        assert (ours._state, ours._half) == _state(ref)
    assert hits["log1p"] >= 100 and hits["exp"] >= 5_000


def test_normal_and_random_interleave_with_integers():
    # an integer keeps the upper half of its 64-bit output; the float draws
    # between it and the next integer must leave that half where it is
    ours, ref = DefaultRNG(42), np.random.default_rng(42)
    for i in range(2000):
        k = i % 7
        assert ours.integers(0, 3) == ref.integers(0, 3)
        assert ours.normal(k) == ref.normal(size=k).tolist()
        assert ours.random(k + 30 * (i % 3)) == ref.random(k + 30 * (i % 3)).tolist()
        assert ours.integers(-1, 2) == ref.integers(-1, 2)
    assert (ours._state, ours._half) == _state(ref)
