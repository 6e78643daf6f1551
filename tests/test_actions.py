"""Constructed actions: spheres, balls, covers, intervals."""

import math
import operator
import random
from functools import partial, reduce

import numpy as np
import pytest

from lieactions.actions import (
    BLOCK_FLOATS,
    ActionReport,
    CoverElement,
    MultiBall,
    OneAtATimeSampler,
    StackedSampler,
    block_size,
    cover_compose,
    cover_eval,
    cover_identity,
    disk_action,
    interval_action,
    looped,
    make_ball_action,
    sphere_action,
    verify_action,
)
from lieactions.cli import ACTIONS
from lieactions.constants import max_residual
from lieactions.deformations import bump_group_deformation
from lieactions.matrixgroups import generators, random_element, random_sl2
from lieactions.serialize import dumps

RNG = lambda s=0: np.random.default_rng(s)


def _all_effective(report):
    """Every generator moved some sampled point."""
    return all(w is not None for w in report.witnesses.values())


def unit_vec(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def one(act, g, y):
    """A block evaluator act(elements, points) on the single sample (g, y)."""
    return act(np.asarray(g, dtype=float)[None], np.asarray(y, dtype=float)[None])[0]


# -- sphere -------------------------------------------------------------------


def test_sphere_identity():
    x = np.array([0.6, 0.8, 0.0])
    assert np.array_equal(sphere_action(np.eye(3), x), x)


def test_sphere_eigenvector_fixed():
    g = np.diag([2.0, 0.5])
    assert np.allclose(sphere_action(g, np.array([1.0, 0.0])), [1.0, 0.0], atol=0)


def test_sphere_composition_law():
    rng = RNG(1)
    res = 0.0
    for _ in range(100):
        g = random_element(rng, "ST", 3)
        h = random_element(rng, "ST", 3)
        x = unit_vec(rng, 3)
        lhs = sphere_action(g @ h, x)
        rhs = sphere_action(g, sphere_action(h, x))
        res = max(res, float(np.max(np.abs(lhs - rhs))))
    assert res <= 1e-12


def test_sphere_rejects_collapse():
    singular = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        sphere_action(singular, np.array([0.0, 1.0]))


# -- ball actions ------------------------------------------------------------------


def test_ball_action_identity_outside_annulus():
    ball = make_ball_action("ST", 3)
    rng = RNG(6)
    g = random_element(rng, "ST", 3)
    for r in (0.05, 0.299, 0.91, 1.5, 7.0):
        y = unit_vec(rng, 3) * r
        assert np.array_equal(one(ball.apply, g, y), y)


def test_ball_action_identity_element():
    ball = make_ball_action("ST", 3)
    rng = RNG(7)
    for _ in range(20):
        y = rng.normal(size=3)
        assert np.max(np.abs(one(ball.apply, np.eye(3), y) - y)) <= 1e-15


def test_ball_action_moved_points_stay_in_annulus():
    ball = make_ball_action("ST", 3)
    rng = RNG(8)
    g = generators("ST", 3)[0][1]
    for _ in range(300):
        y = unit_vec(rng, 3) * rng.uniform(0.05, 1.4)
        out = one(ball.apply, g, y)
        if np.max(np.abs(out - y)) > 0:
            r = np.linalg.norm(y)
            assert 0.3 < r < 0.9
            # radius is preserved
            assert abs(np.linalg.norm(out) - r) <= 1e-12


def test_ball_action_bijective_via_inverse():
    ball = make_ball_action("ST", 3)
    rng = RNG(9)
    for _ in range(50):
        g = random_element(rng, "ST", 3)
        ginv = np.linalg.inv(g)
        y = unit_vec(rng, 3) * rng.uniform(0.05, 1.2)
        back = one(ball.apply, ginv, one(ball.apply, g, y))
        assert np.max(np.abs(back - y)) <= 1e-9


def test_ball_action_verification_st_and_u():
    for group in ("ST", "U"):
        ball = make_ball_action(group, 3)
        report = verify_action(
            ball.apply,
            np.eye(3),
            OneAtATimeSampler(lambda r, _g=group: random_element(r, _g, 3), point_sampler(3, (ball,))),
            generators(group, 3),
            samples=200,
        )
        assert report.max_identity_residual <= 1e-9
        assert report.max_composition_residual <= 1e-6
        assert _all_effective(report), group


def test_ball_action_annulus_validation():
    with pytest.raises(ValueError):
        make_ball_action("ST", 3, r0=0.9, r1=0.3)
    with pytest.raises(ValueError):
        make_ball_action("ST", 3, r0=0.0, r1=0.5)


# -- multiball ------------------------------------------------------------------------


def make_three_balls(group="ST", n=3):
    return [
        make_ball_action(group, n, center=(0.0, 0.0, 0.0)),
        make_ball_action(group, n, center=(3.0, 0.0, 0.0)),
        make_ball_action(group, n, center=(0.0, 3.0, 0.0)),
    ]


def test_multiball_identity_and_disjoint_supports():
    balls = make_three_balls()
    mb = MultiBall(tuple(balls))
    rng = RNG(10)
    ident = tuple(np.eye(3) for _ in range(3))
    y = rng.normal(size=3)
    assert np.max(np.abs(one(mb.apply, ident, y) - y)) <= 1e-15
    # an element acting in ball 1 fixes all of ball 2
    g = generators("ST", 3)[0][1]
    elements = (g, np.eye(3), np.eye(3))
    pt_in_ball2 = np.array([3.0, 0.5, 0.0])
    assert np.array_equal(one(mb.apply, elements, pt_in_ball2), pt_in_ball2)


def test_multiball_action_law():
    balls = make_three_balls()
    mb = MultiBall(tuple(balls))
    centers = [np.asarray(b.center) for b in balls]

    def sample_el(rng):
        return tuple(random_element(rng, "ST", 3) for _ in range(3))

    def sample_pt(rng):
        j = int(rng.integers(0, 3))
        return centers[j] + unit_vec(rng, 3) * rng.uniform(0.05, 1.3)

    gens = []
    for j in range(3):
        for name, g in generators("ST", 3):
            el = [np.eye(3)] * 3
            el[j] = g
            gens.append((f"ball{j}.{name}", tuple(el)))
    report = verify_action(
        mb.apply, tuple(np.eye(3) for _ in range(3)), OneAtATimeSampler(sample_el, sample_pt), gens, samples=200
    )
    assert report.max_composition_residual <= 1e-6
    assert _all_effective(report)


def test_multiball_rejects_overlap():
    with pytest.raises(ValueError):
        MultiBall((make_ball_action("ST", 3, center=(0.0, 0.0, 0.0)),
                   make_ball_action("ST", 3, center=(1.5, 0.0, 0.0))))


# -- verify_action edge cases ------------------------------------------------------------


def test_verify_sphere_st2_generators_effective():
    # both the diagonal and the shear generator move the direction (0, 1)
    report = verify_action(
        sphere_action,
        np.eye(2),
        OneAtATimeSampler(lambda r: random_element(r, "ST", 2), lambda r: unit_vec(r, 2)),
        generators("ST", 2),
        samples=100,
    )
    assert report.max_composition_residual <= 1e-12
    assert _all_effective(report)
    # the shear moves (0, 1); the diagonal fixes the axes but moves any
    # generic direction
    shear = dict(generators("ST", 2))["shear12"]
    moved = sphere_action(shear, np.array([0.0, 1.0]))
    assert np.max(np.abs(moved - np.array([0.0, 1.0]))) > 1e-6
    diag = dict(generators("ST", 2))["diag1"]
    generic = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert np.max(np.abs(sphere_action(diag, generic) - generic)) > 1e-6


def test_verify_trivial_action():
    report = verify_action(
        lambda g, y: np.asarray(y, dtype=float),
        np.eye(2),
        OneAtATimeSampler(lambda r: random_element(r, "ST", 2), lambda r: r.normal(size=2)),
        [("gen", np.eye(2) + np.array([[0.0, 1.0], [0.0, 0.0]]))],
        samples=50,
    )
    assert report.max_identity_residual == 0.0
    assert report.max_composition_residual == 0.0
    assert report.witnesses["gen"] is None


def test_verify_detects_fault_injected_action():
    # a ball-like action with a deliberately mismatched level: g acts at t,
    # but composition effectively sees different levels
    gd = bump_group_deformation("ST", 3)

    def faulty(g, y):
        r = float(np.linalg.norm(y))
        if r < 1e-9:
            return np.asarray(y, dtype=float).copy()
        # level depends on the matrix entry, breaking the per-level law
        t = 0.45 + 0.2 * math.tanh(abs(float(g[0, 1])))
        xp = sphere_action(gd.apply_many([t], g[None])[0], y / r)
        return r * xp

    report = verify_action(
        looped(faulty),
        np.eye(3),
        OneAtATimeSampler(lambda r: random_element(r, "ST", 3), lambda r: unit_vec(r, 3) * r.uniform(0.4, 0.8)),
        [],
        samples=100,
    )
    assert report.max_composition_residual > 1e-3


# -- batched checks against the one-sample loop -------------------------------------------
#
# The one-sample evaluations and samplers of the matrix kinds and the loop
# that checked one sample after the other, kept as the oracle of the block
# evaluators, of the stacked sampler and of verify_action: the reports must
# agree byte for byte, and the generator must end in the same state.


def sphere_one(g, x):
    """x -> gx/|gx| for one matrix and one point."""
    y = g @ x
    norm = math.sqrt(y.dot(y))
    if norm < 1e-300:
        raise ValueError("matrix is singular along this direction")
    return y / norm


def ball_one(ball, g, y):
    """The ball action of one matrix on one point."""
    center = ball.center_array
    log_r1 = math.log(ball.r1)
    y = np.asarray(y, dtype=float)
    u = y - center
    r = math.sqrt(u.dot(u))
    rel = r / ball.radius
    if rel <= ball.r0 or rel >= ball.r1:
        return y.copy()
    t = (log_r1 - math.log(rel)) / (log_r1 - math.log(ball.r0))
    return center + r * sphere_one(ball.deformation.apply_many([t], g[None])[0], u / r)


def multiball_one(multiball, elements, y):
    """The multiball action of one tuple of matrices on one point."""
    out = np.asarray(y, dtype=float).copy()
    for ball, g in zip(multiball.balls, elements):
        out = ball_one(ball, g, out)
    return out


def gap(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def compose_one(g, h):
    if isinstance(g, CoverElement):
        return cover_compose(g, h)
    if isinstance(g, tuple):
        return tuple(x @ y for x, y in zip(g, h))
    return g @ h


def verify_loop(act, identity, sample_element, sample_point, named_generators, samples, seed, move_threshold=1e-6):
    """verify_action one sample at a time, with a one-sample act(element, point)."""
    rng = np.random.default_rng(seed)
    id_res = comp_res = 0.0
    points = [sample_point(rng) for _ in range(samples)]
    for y in points:
        id_res = max_residual(id_res, gap(act(identity, y), y))
    for _ in range(samples):
        g = sample_element(rng)
        h = sample_element(rng)
        y = sample_point(rng)
        comp_res = max_residual(comp_res, gap(act(compose_one(g, h), y), act(g, act(h, y))))
    witnesses = {}
    for name, gen in named_generators:
        found = None
        for y in points:
            disp = gap(act(gen, y), y)
            if disp >= move_threshold:
                found = (np.asarray(y, dtype=float), disp)
                break
        witnesses[name] = found
    return ActionReport(id_res, comp_res, witnesses, samples, seed, move_threshold)


def element_sampler(group, shape):
    """The one-sample element sampler of a StackedSampler's group and shape:
    `random_element`, or a tuple of k of them, one factor after the other."""
    n = shape[-1]
    if len(shape) == 2:
        return lambda rng: random_element(rng, group, n)
    return lambda rng: tuple(random_element(rng, group, n) for _ in range(shape[0]))


def point_sampler(n, balls=()):
    """The one-sample point sampler: a random unit vector of R^n or, given balls, a point of a
    random one at relative radius in [0.05, 1.3), around and across its annulus."""

    def sample(r):
        if len(balls) > 1:
            ball = balls[int(r.integers(0, len(balls)))]
        else:  # integers(0, 1) would draw nothing, so one ball is taken as it is
            ball = balls[0] if balls else None
        v = r.normal(size=n)
        v = v / math.sqrt(v.dot(v))  # the Euclidean norm, as np.linalg.norm computes it
        return v if ball is None else ball.center_array + v * r.uniform(0.05, 1.3) * ball.radius

    return sample


def one_at_a_time(sampler):
    """The OneAtATimeSampler that draws what `sampler` draws: the oracle
    samplers of a StackedSampler, or a OneAtATimeSampler itself."""
    if isinstance(sampler, OneAtATimeSampler):
        return sampler
    return OneAtATimeSampler(element_sampler(sampler.group, sampler.shape), point_sampler(sampler.shape[-1], sampler.balls))


def kind_parts(kind, group=None, n=2, balls=1):
    """The verify_action arguments of an `act verify` kind, as the CLI sets
    them up, and the oracle: the one-sample action and its samplers."""
    place = random.Random(n * 10 + balls)

    def placement(first):
        r0 = round(place.uniform(0.2, 0.45), 3)
        return {"center": [first] + [round(place.uniform(-0.5, 0.5), 3) for _ in range(n - 1)],
                "radius": round(place.uniform(0.5, 1.5), 3), "annulus": [r0, round(place.uniform(0.6, 0.95), 3)]}

    v = {"action": kind, "group": group, "n": n}
    if kind == "ball":
        v.update(placement(0.25))
    elif kind == "multiball":
        v["balls"] = [placement(4.0 * j) for j in range(balls)]
    act, identity, sampler, gens, _ = ACTIONS[kind][1](v)
    oracle = {
        "sphere": lambda: sphere_one,
        "ball": lambda: partial(ball_one, act.__self__),
        "multiball": lambda: partial(multiball_one, act.__self__),
        "interval": lambda: lambda a, y: np.array([interval_action(a, float(y[0]))]),
        "disk": lambda: disk_action,
    }[kind]()
    return (act, identity, sampler, list(gens)), (oracle, one_at_a_time(sampler))


class Spy:
    """A sampler that keeps the generator verify_action hands it."""

    def __init__(self, sampler):
        self.sampler = sampler

    def points(self, rng, samples):
        self.rng = rng
        return self.sampler.points(rng, samples)

    def block(self, rng, b):
        return self.sampler.block(rng, b)


def assert_same_as_loop(parts, oracle, samples, seed):
    act, identity, sampler, gens = parts
    one_act, one_sampler = oracle
    seen = {}

    def sample_point(rng):
        seen["rng"] = rng
        return one_sampler.sample_point(rng)

    spy = Spy(sampler)
    batched = verify_action(act, identity, spy, gens, samples=samples, seed=seed)
    loop = verify_loop(one_act, identity, one_sampler.sample_element, sample_point, gens, samples, seed)
    assert dumps(batched.to_dict()) == dumps(loop.to_dict())
    assert spy.rng.bit_generator.state == seen["rng"].bit_generator.state


# (kind, group, n, balls): each matrix kind over ST and U, n = 1..6 (the ball
# kinds need n >= 2), and 1 to 3 balls
MATRIX_CASES = [
    (kind, group, n, 1 + n % 3 if kind == "multiball" else 1)
    for kind in ("sphere", "ball", "multiball") for group in ("ST", "U")
    for n in range(1 if kind == "sphere" else 2, 7)
]
# across the ends of the first block and the block after it
EDGE_SAMPLES = (1, 255, 256, 257)


@pytest.mark.parametrize("kind,group,n,balls", MATRIX_CASES, ids=lambda x: str(x))
def test_batched_report_matches_the_one_sample_loop(kind, group, n, balls):
    parts, oracle = kind_parts(kind, group, n, balls)
    for samples in EDGE_SAMPLES:
        assert_same_as_loop(parts, oracle, samples, seed=n + samples)


@pytest.mark.parametrize("kind,group,n,balls", [
    ("sphere", "ST", 3, 1),
    ("sphere", "U", 16, 1),  # 256 floats an element: blocks of 64
    ("ball", "ST", 5, 1),
    ("ball", "U", 4, 1),
    ("multiball", "ST", 5, 3),
    ("multiball", "U", 12, 3),  # 432 floats an element: blocks of 37
    ("interval", None, 2, 1),
    ("disk", None, 3, 1),
], ids=lambda x: str(x))
def test_batched_report_matches_the_one_sample_loop_at_2001_samples(kind, group, n, balls):
    parts, oracle = kind_parts(kind, group, n, balls)
    assert_same_as_loop(parts, oracle, 2001, seed=7 * n)


def test_witness_past_the_first_chunk_and_block_is_the_loops():
    # moves only the points whose first coordinate is above 0.998, by g[0, 1];
    # at seed 7 the first of them is point 614, in the third block of 256
    def plant(gs, ys):
        out = ys.copy()
        hit = ys[:, 0] > 0.998
        out[hit, 0] += gs[hit, 0, 1]
        return out

    def plant_one(g, y):
        return plant(g[None], y[None])[0]

    gens = [("still", np.eye(2)), ("shear", np.array([[1.0, 0.5], [0.0, 1.0]]))]
    draws = (lambda r: random_element(r, "U", 2), lambda r: r.uniform(size=2))
    batched = verify_action(plant, np.eye(2), OneAtATimeSampler(*draws), gens, samples=2001, seed=7)
    loop = verify_loop(plant_one, np.eye(2), *draws, gens, samples=2001, seed=7)
    assert dumps(batched.to_dict()) == dumps(loop.to_dict())
    assert batched.witnesses["still"] is None
    point, disp = batched.witnesses["shear"]
    rng = RNG(7)
    points = [rng.uniform(size=2) for _ in range(2001)]
    first = next(i for i, y in enumerate(points) if y[0] > 0.998)
    assert first == 614 and first > 2 * block_size(np.eye(2))
    assert np.array_equal(point, points[first]) and disp == (points[first][0] + 0.5) - points[first][0]


def test_nan_residual_reports_nan_as_in_the_loop():
    # sends the points whose first coordinate is above 0.99 to NaN, one of
    # them in the middle of the second block
    def nan_at(gs, ys):
        out = ys.copy()
        out[ys[:, 0] > 0.99] = np.nan
        return out

    def nan_at_one(g, y):
        return nan_at(g[None], y[None])[0]

    draws = (lambda r: random_element(r, "U", 2), lambda r: r.uniform(size=2))
    batched = verify_action(nan_at, np.eye(2), OneAtATimeSampler(*draws), [], samples=600, seed=3)
    loop = verify_loop(nan_at_one, np.eye(2), *draws, [], samples=600, seed=3)
    assert math.isnan(batched.max_identity_residual) and math.isnan(batched.max_composition_residual)
    assert dumps(batched.to_dict()) == dumps(loop.to_dict())


def test_ball_sends_a_point_with_a_nan_coordinate_through_the_formula():
    # a NaN radius is neither inside nor outside the annulus: like the
    # one-sample formula, the block evaluator makes every coordinate NaN
    ball = make_ball_action("ST", 3)
    g = random_element(RNG(5), "ST", 3)
    y = np.array([np.nan, 0.2, 0.1])
    got = one(ball.apply, g, y)
    assert np.isnan(got).all() and np.array_equal(got, ball_one(ball, g, y), equal_nan=True)


def test_no_block_evaluation_exceeds_the_block_size():
    # n = 16 with 8 balls: 2048 floats an element, so blocks of 8 samples
    (act, identity, sampler, gens), _ = kind_parts("multiball", "U", 16, 8)
    sizes = []

    def spy(elements, points):
        assert len(elements) == len(points)
        sizes.append(len(points))
        return act(elements, points)

    verify_action(spy, identity, sampler, gens[:4], samples=40)
    assert block_size(identity) == BLOCK_FLOATS // (8 * 16 * 16) == 8
    assert max(sizes) == 8
    (act, identity, sampler, gens), _ = kind_parts("sphere", "ST", 3)
    sizes.clear()
    verify_action(spy, identity, sampler, gens, samples=600)
    assert max(sizes) == block_size(identity) == 256


# -- the stacked sampler against the one-sample samplers ---------------------------------------
#
# (kind, group, n, balls): ST and U at n = 1..16 (the ball kinds need n >= 2),
# a multiball of 1 to 8 balls
SAMPLER_CASES = [
    (kind, group, n, 1 + (n - 1) % 8 if kind == "multiball" else 1)
    for kind in ("sphere", "ball", "multiball") for group in ("ST", "U")
    for n in range(1 if kind == "sphere" else 2, 17)
]


def _bits_of(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("kind,group,n,balls", SAMPLER_CASES, ids=lambda x: str(x))
def test_stacked_sampler_draws_what_the_one_sample_samplers_draw(kind, group, n, balls):
    (_, identity, sampler, _), (_, one) = kind_parts(kind, group, n, balls)
    assert isinstance(sampler, StackedSampler)
    b = block_size(identity)
    for samples, seed in ((b - 1, 0), (b, 2**200), (b + 1, 7 * n + balls)):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        points = sampler.points(rng, samples)
        assert _bits_of(points) == _bits_of([one.sample_point(ref) for _ in range(samples)])
        gs, hs, ys = sampler.block(rng, samples)
        want = [(one.sample_element(ref), one.sample_element(ref), one.sample_point(ref)) for _ in range(samples)]
        for got, drawn in zip((gs, hs, ys), zip(*want)):
            assert got.shape == (samples, *np.shape(drawn[0]))
            assert _bits_of(got) == _bits_of(drawn)
        assert rng.bit_generator.state == ref.bit_generator.state


# The float facts the stacked sampler rests on. A numpy upgrade that breaks one
# fails here by name, before any golden report moves.
RANGES = ((0.5, 2.0), (-2.0, 2.0), (0.05, 1.3))


@pytest.mark.parametrize("low,high", RANGES)
def test_uniform_is_low_plus_range_times_random(low, high):
    drawn = RNG(11).uniform(low, high, 10**5)
    assert _bits_of(drawn) == _bits_of(low + (high - low) * RNG(11).random(10**5))


def test_prod_of_at_most_16_entries_multiplies_left_to_right():
    rng = RNG(12)
    for n in range(1, 17):
        for row in rng.uniform(0.5, 2.0, (500, n)):
            assert row.prod() == reduce(operator.mul, row.tolist())


def test_numpy_scalar_power_is_python_float_power():
    # random_element takes the root of a numpy float64; the stacked sampler
    # takes it of a Python float. np.power on an array is not used: its SIMD
    # loop rounds some powers differently (AVX-512).
    rng = RNG(13)
    for n in range(1, 17):
        for p in rng.uniform(0.5, 2.0, (500, n)).prod(axis=1):
            assert (p ** (1.0 / n)).hex() == (float(p) ** (1.0 / n)).hex()


# -- lifted circle action -----------------------------------------------------------------


def test_cover_deck_translation_compose():
    i1 = CoverElement.of(np.eye(2), 1)
    i2 = cover_compose(i1, i1)
    assert i2.deck == 2
    assert abs(cover_eval(i2, 0.3) - (0.3 + 2 * math.pi)) <= 1e-12


def test_cover_composition_pointwise():
    rng = RNG(12)
    worst = 0.0
    for _ in range(100):
        a = CoverElement.of(random_sl2(rng), int(rng.integers(-2, 3)))
        b = CoverElement.of(random_sl2(rng), int(rng.integers(-2, 3)))
        ab = cover_compose(a, b)
        for theta in rng.uniform(-6, 6, size=4):
            lhs = cover_eval(ab, float(theta))
            rhs = cover_eval(a, cover_eval(b, float(theta)))
            worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-9


def test_cover_associativity():
    rng = RNG(13)
    worst = 0.0
    for _ in range(100):
        a = CoverElement.of(random_sl2(rng))
        b = CoverElement.of(random_sl2(rng))
        c = CoverElement.of(random_sl2(rng))
        left = cover_compose(cover_compose(a, b), c)
        right = cover_compose(a, cover_compose(b, c))
        for theta in rng.uniform(-4, 4, size=3):
            worst = max(worst, abs(cover_eval(left, float(theta)) - cover_eval(right, float(theta))))
    assert worst <= 1e-9


def _linalg_det_accepts(a) -> bool:
    """The check CoverElement.of used to make: an LU determinant within 1e-9 of 1."""
    return abs(float(np.linalg.det(a)) - 1.0) <= 1e-9


def _of_accepts(a) -> bool:
    try:
        CoverElement.of(a)
    except ValueError:
        return False
    return True


def test_cover_determinant_check_matches_linalg_det():
    rng = RNG(16)
    matrices = []
    for _ in range(300):
        drawn = random_sl2(rng)
        a = CoverElement.of(drawn, int(rng.integers(-1, 2)))
        b = CoverElement.of(random_sl2(rng), int(rng.integers(-1, 2)))
        matrices += [drawn, cover_compose(a, b).as_array(), _array_inverse(a).as_array()]
    # the same matrices with the determinant moved inside, across and far past the tolerance
    scaled = [m * np.array([[1.0 + d], [1.0]]) for m in matrices[:150] for d in (5e-10, -5e-10, 2e-9, -2e-9, 1e-3)]
    for m in matrices + scaled:
        assert _of_accepts(m) == _linalg_det_accepts(m), m
    assert all(_of_accepts(m) for m in matrices)
    assert not all(_of_accepts(m) for m in scaled)
    with pytest.raises(ValueError, match="determinant 1"):
        CoverElement.of(np.array([[2.0, 0.0], [0.0, 1.0]]))


def test_cover_deck_equivariance():
    rng = RNG(14)
    worst = 0.0
    for _ in range(20):
        a = CoverElement.of(random_sl2(rng), int(rng.integers(-1, 2)))
        for theta in rng.uniform(-6, 6, size=100):
            worst = max(
                worst,
                abs(cover_eval(a, float(theta) + math.pi) - cover_eval(a, float(theta)) - math.pi),
            )
    assert worst <= 1e-9


# The lift, evaluation, composition and inverse as they were when they read the
# matrix through a numpy array on every call: the oracle of the tuple versions.
def _array_lift(a: np.ndarray, theta: float) -> float:
    m = math.floor(theta / math.pi)
    theta0 = theta - m * math.pi
    base = math.atan2(a[1, 0], a[0, 0]) % math.pi
    base = base - math.pi if base >= math.pi else base
    v1 = a[0, 0] * math.cos(theta0) + a[0, 1] * math.sin(theta0)
    v2 = a[1, 0] * math.cos(theta0) + a[1, 1] * math.sin(theta0)
    val = math.atan2(v2, v1) % math.pi
    val = val - math.pi if val >= math.pi else val
    inc = (val - base) % math.pi
    if inc >= math.pi:
        inc -= math.pi
    return base + inc + m * math.pi


def _array_eval(a: CoverElement, theta: float) -> float:
    return _array_lift(a.as_array(), theta) + a.deck * math.pi


def _array_compose(a: CoverElement, b: CoverElement) -> CoverElement:
    a_arr, b_arr = a.as_array(), b.as_array()
    ab = a_arr @ b_arr
    delta = round((_array_lift(a_arr, _array_lift(b_arr, 0.0)) - _array_lift(ab, 0.0)) / math.pi)
    return CoverElement.of(ab, a.deck + b.deck + int(delta))


def _array_inverse(a: CoverElement) -> CoverElement:
    arr = a.as_array()
    raw = CoverElement.of(np.array([[arr[1, 1], -arr[0, 1]], [-arr[1, 0], arr[0, 0]]]), -a.deck)
    shift = round(_array_eval(_array_compose(a, raw), 0.0) / math.pi)
    return CoverElement(raw.matrix, raw.deck - int(shift))


def _bits(element: CoverElement):
    return [x.hex() for row in element.matrix for x in row], element.deck


def test_cover_operations_match_the_array_versions_bit_for_bit():
    rng = RNG(17)
    for _ in range(300):
        a = CoverElement.of(random_sl2(rng), int(rng.integers(-3, 4)))
        b = CoverElement.of(random_sl2(rng), int(rng.integers(-3, 4)))
        # negative angles, angles past several deck shifts, and the multiples of pi
        for theta in [*rng.uniform(-12.0, 12.0, size=6), -math.pi, 0.0, math.pi, -3 * math.pi]:
            assert cover_eval(a, float(theta)).hex() == _array_eval(a, float(theta)).hex()
        assert _bits(cover_compose(a, b)) == _bits(_array_compose(a, b))


def test_cover_base_normalization():
    rng = RNG(15)
    for _ in range(50):
        a = CoverElement.of(random_sl2(rng))
        base = cover_eval(a, 0.0)
        assert 0.0 <= base < math.pi


# -- interval and disk ----------------------------------------------------------------------


def test_interval_endpoints_fixed_exactly():
    rng = RNG(16)
    for _ in range(20):
        a = CoverElement.of(random_sl2(rng), int(rng.integers(-2, 3)))
        assert interval_action(a, 0.0) == 0.0
        assert interval_action(a, 1.0) == 1.0


def test_interval_identity_element():
    ident = cover_identity()
    for s in (0.0, 0.2, 0.5, 0.9, 1.0):
        assert abs(interval_action(ident, s) - s) <= 1e-12


def test_interval_composition_and_nondegeneracy():
    rng = RNG(17)
    worst = 0.0
    for _ in range(200):
        a = CoverElement.of(random_sl2(rng))
        b = CoverElement.of(random_sl2(rng))
        ab = cover_compose(a, b)
        s = rng.uniform(0.01, 0.99)
        lhs = interval_action(ab, s)
        rhs = interval_action(a, interval_action(b, s))
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-6
    # nondegeneracy witness: the rotation generator moves the midpoint
    rot = CoverElement.of(np.array([[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]]))
    assert abs(interval_action(rot, 0.5) - 0.5) > 1e-6


def test_interval_domain_validation():
    a = cover_identity()
    with pytest.raises(ValueError):
        interval_action(a, -0.1)
    with pytest.raises(ValueError):
        interval_action(a, 1.1)


def test_disk_action_boundary_and_center_fixed():
    rng = RNG(18)
    a = CoverElement.of(random_sl2(rng))
    boundary = np.array([0.6, 0.8])
    assert np.array_equal(disk_action(a, boundary), boundary)
    assert np.array_equal(disk_action(a, np.zeros(2)), np.zeros(2))


def test_disk_action_composition():
    rng = RNG(19)
    worst = 0.0
    for _ in range(100):
        a = CoverElement.of(random_sl2(rng))
        b = CoverElement.of(random_sl2(rng))
        ab = cover_compose(a, b)
        y = unit_vec(rng, 2) * rng.uniform(0.05, 0.95)
        lhs = disk_action(ab, y)
        rhs = disk_action(a, disk_action(b, y))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst <= 1e-6


def test_disk_rejects_outside_points():
    a = cover_identity()
    with pytest.raises(ValueError):
        disk_action(a, np.array([1.2, 0.0]))
