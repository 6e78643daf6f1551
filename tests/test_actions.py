"""Constructed actions: spheres, balls, covers, intervals.

The program draws from `pcg64.DefaultRNG` and evaluates a block of samples
with compiled straight-line kernels. Three kinds of oracle check it: the
one-sample forms below, written as plain loops with every sum left to
right, which the blocks must match bit for bit; the numpy reference of
`one_sample.py` (the program's code before it ran on the standard
library), which draws the same stream and must agree within
`ROUNDING_BOUND`; and numpy's generator, whose final state the program's
must reach.
"""

import json
import math
import operator
import random
from functools import partial, reduce
from pathlib import Path

import numpy as np
import pytest

from lieactions.act_verbs import ACT_KEYS, ACTIONS
from lieactions.actions import (
    BLOCK_FLOATS,
    BLOCK_SAMPLES,
    ActionReport,
    CoverElement,
    CoverSampler,
    MultiBall,
    StackedSampler,
    _cover_element,
    _lift_eval,
    cover_compose,
    cover_eval,
    disk_block,
    interval_action,
    interval_block,
    make_ball_action,
    sphere_action,
    verify_action,
)
from lieactions.constants import max_residual
from lieactions.deformations import bump_group_deformation
from lieactions.matrixgroups import generators, identity, random_element, triangular_product
from lieactions.pcg64 import DefaultRNG
from lieactions.serialize import dumps, read_object

from one_sample import (
    ROUNDING_BOUND,
    OneAtATimeSampler,
    as_array,
    as_numpy,
    close,
    looped,
    np_compose,
    np_verify_loop,
    random_sl2,
    reference_of,
)

RNG = lambda s=0: np.random.default_rng(s)
GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = Path(__file__).parent.parent / "scenarios"


def _all_effective(report):
    """Every generator moved some sampled point."""
    return all(w is not None for w in report.witnesses.values())


def square_sum(v) -> float:
    """v_0^2 + ... + v_(n-1)^2, left to right."""
    return reduce(operator.add, (c * c for c in v))


def unit_vec(rng, n):
    """A unit vector of R^n from the normals of a DefaultRNG."""
    v = rng.normal(n)
    norm = math.sqrt(square_sum(v))
    return tuple(c / norm for c in v)


def scaled(v, r):
    return tuple(c * r for c in v)


def gap(a, b) -> float:
    return max_residual(0.0, *(abs(x - y) for x, y in zip(a, b)))


def one(act, g, y):
    """A block evaluator act(elements, points) on the single sample (g, y)."""
    return act([g], [tuple(y)])[0]


# -- sphere -------------------------------------------------------------------


def test_sphere_identity():
    x = (0.6, 0.8, 0.0)
    assert one(sphere_action, identity(3), x) == x


def test_sphere_eigenvector_fixed():
    g = (2.0, 0.0, 0.0, 0.5)
    assert one(sphere_action, g, (1.0, 0.0)) == (1.0, 0.0)


def test_sphere_composition_law():
    rng = DefaultRNG(1)
    mul = triangular_product(3)
    res = 0.0
    for _ in range(100):
        g = random_element(rng, "ST", 3)
        h = random_element(rng, "ST", 3)
        x = unit_vec(rng, 3)
        lhs = one(sphere_action, mul(g, h), x)
        rhs = one(sphere_action, g, one(sphere_action, h, x))
        res = max(res, gap(lhs, rhs))
    assert res <= 1e-12


def test_sphere_rejects_collapse():
    singular = (1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        one(sphere_action, singular, (0.0, 1.0))


# -- ball actions ------------------------------------------------------------------


def test_ball_action_identity_outside_annulus():
    ball = make_ball_action("ST", 3)
    rng = DefaultRNG(6)
    g = random_element(rng, "ST", 3)
    for r in (0.05, 0.299, 0.91, 1.5, 7.0):
        y = scaled(unit_vec(rng, 3), r)
        assert one(ball.apply, g, y) == y


def test_ball_action_identity_element():
    ball = make_ball_action("ST", 3)
    rng = DefaultRNG(7)
    for _ in range(20):
        y = tuple(rng.normal(3))
        assert gap(one(ball.apply, identity(3), y), y) <= 1e-15


def test_ball_action_moved_points_stay_in_annulus():
    ball = make_ball_action("ST", 3)
    rng = DefaultRNG(8)
    g = generators("ST", 3)[0][1]
    for _ in range(300):
        y = scaled(unit_vec(rng, 3), rng.uniform(0.05, 1.4, 1)[0])
        out = one(ball.apply, g, y)
        if gap(out, y) > 0:
            r = math.sqrt(square_sum(y))
            assert 0.3 < r < 0.9
            # radius is preserved
            assert abs(math.sqrt(square_sum(out)) - r) <= 1e-12


def test_ball_action_bijective_via_inverse():
    ball = make_ball_action("ST", 3)
    rng = DefaultRNG(9)
    for _ in range(50):
        g = random_element(rng, "ST", 3)
        ginv = tuple(np.linalg.inv(as_numpy(g)).ravel().tolist())
        y = scaled(unit_vec(rng, 3), rng.uniform(0.05, 1.2, 1)[0])
        back = one(ball.apply, ginv, one(ball.apply, g, y))
        assert gap(back, y) <= 1e-9


def test_ball_action_verification_st_and_u():
    for group in ("ST", "U"):
        ball = make_ball_action(group, 3)
        report = verify_action(
            ball.apply,
            OneAtATimeSampler(lambda r, _g=group: random_element(r, _g, 3), point_sampler(3, (ball,)),
                              StackedSampler(group, (3, 3), (ball,))),
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
    rng = DefaultRNG(10)
    ident = (identity(3),) * 3
    y = tuple(rng.normal(3))
    assert gap(one(mb.apply, ident, y), y) <= 1e-15
    # an element acting in ball 1 fixes all of ball 2
    g = generators("ST", 3)[0][1]
    elements = (g, identity(3), identity(3))
    pt_in_ball2 = (3.0, 0.5, 0.0)
    assert one(mb.apply, elements, pt_in_ball2) == pt_in_ball2


def test_multiball_action_law():
    balls = make_three_balls()
    mb = MultiBall(tuple(balls))

    def sample_el(rng):
        return tuple(random_element(rng, "ST", 3) for _ in range(3))

    gens = []
    for j in range(3):
        for name, g in generators("ST", 3):
            el = [identity(3)] * 3
            el[j] = g
            gens.append((f"ball{j}.{name}", tuple(el)))
    group = StackedSampler("ST", (3, 3, 3), tuple(balls))
    sampler = OneAtATimeSampler(sample_el, point_sampler(3, tuple(balls)), group)
    report = verify_action(mb.apply, sampler, gens, samples=200)
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
        OneAtATimeSampler(lambda r: random_element(r, "ST", 2), lambda r: unit_vec(r, 2),
                          StackedSampler("ST", (2, 2), ())),
        generators("ST", 2),
        samples=100,
    )
    assert report.max_composition_residual <= 1e-12
    assert _all_effective(report)
    # the shear moves (0, 1); the diagonal fixes the axes but moves any
    # generic direction
    shear = dict(generators("ST", 2))["shear12"]
    assert gap(one(sphere_action, shear, (0.0, 1.0)), (0.0, 1.0)) > 1e-6
    diag = dict(generators("ST", 2))["diag1"]
    generic = (1.0 / math.sqrt(2.0),) * 2
    assert gap(one(sphere_action, diag, generic), generic) > 1e-6


def test_verify_trivial_action():
    report = verify_action(
        lambda gs, ys: list(ys),
        OneAtATimeSampler(lambda r: random_element(r, "ST", 2), lambda r: tuple(r.normal(2)),
                          StackedSampler("ST", (2, 2), ())),
        [("gen", (1.0, 1.0, 0.0, 1.0))],
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
        r = math.sqrt(square_sum(y))
        if r < 1e-9:
            return tuple(y)
        # level depends on the matrix entry, breaking the per-level law
        t = 0.45 + 0.2 * math.tanh(abs(g[1]))
        return scaled(one(sphere_action, gd.apply_many([t], [g])[0], scaled(y, 1.0 / r)), r)

    report = verify_action(
        looped(faulty),
        OneAtATimeSampler(lambda r: random_element(r, "ST", 3),
                          lambda r: scaled(unit_vec(r, 3), r.uniform(0.4, 0.8, 1)[0]),
                          StackedSampler("ST", (3, 3), ())),
        [],
        samples=100,
    )
    assert report.max_composition_residual > 1e-3


# -- batched checks against the one-sample loop -------------------------------------------
#
# The one-sample evaluations and samplers of every kind and the loop that
# checks one sample after the other, as plain Python loops with every sum
# left to right: the oracle of the compiled block kernels, of the samplers
# and of verify_action. The reports must agree byte for byte, and the
# generator must end in the same state.


def sphere_one(g, x):
    """x -> gx/|gx| for one upper-triangular flat matrix and one point."""
    n = len(x)
    y = []
    for i in range(n):
        acc = g[i * n + i] * x[i]
        for j in range(i + 1, n):
            acc = acc + g[i * n + j] * x[j]
        y.append(acc)
    norm = math.sqrt(square_sum(y))
    if norm < 1e-300:
        raise ValueError("matrix is singular along this direction")
    return tuple(c / norm for c in y)


def deform_one(gd, t, g):
    """The endomorphism of gd at time t of one flat matrix, entry by entry."""
    kind, p = gd.state_at(t)
    n = gd.n
    out = [0.0] * (n * n)
    for i in range(n):
        if kind == "offdiag":
            out[i * n + i] = g[i * n + i]
            for j in range(i + 1, n):
                out[i * n + j] = g[i * n + j] * p ** (j - i)
        else:
            out[i * n + i] = g[i * n + i] ** p
    return tuple(out)


def ball_one(ball, g, y):
    """The ball action of one matrix on one point."""
    u = [a - c for a, c in zip(y, ball.center)]
    r = math.sqrt(square_sum(u))
    rel = r / ball.radius
    if rel <= ball.r0 or rel >= ball.r1:
        return tuple(y)
    log_r1 = math.log(ball.r1)
    t = (log_r1 - math.log(rel)) / (log_r1 - math.log(ball.r0))
    xp = sphere_one(deform_one(ball.deformation, t, g), [c / r for c in u])
    return tuple(c + r * x for c, x in zip(ball.center, xp))


def multiball_one(multiball, elements, y):
    """The multiball action of one tuple of matrices on one point."""
    for ball, g in zip(multiball.balls, elements):
        y = ball_one(ball, g, y)
    return tuple(y)


def disk_one_sample(a, y):
    """The disk action of one element on one point."""
    r = math.sqrt(square_sum(y))
    if r > 1.0 + 1e-12:
        raise ValueError("point must lie in the closed unit disk")
    if r == 0.0 or r >= 1.0:
        return tuple(y)
    return scaled(y, interval_action(a, r) / r)


def compose_one(g, h):
    """The product of one pair: the 2x2 matrices of CoverElements entry by
    entry, p p' + q r' and so on; triangular matrices (or tuples of them)
    entry by entry, g_ii h_ij + ... + g_ij h_jj."""
    if isinstance(g, CoverElement):
        (p, q), (r, s) = g.matrix
        (p2, q2), (r2, s2) = h.matrix
        ab = ((p * p2 + q * r2, p * q2 + q * s2), (r * p2 + s * r2, r * q2 + s * s2))
        delta = round((_lift_eval(g.matrix, _lift_eval(h.matrix, 0.0)) - _lift_eval(ab, 0.0)) / math.pi)
        return _cover_element(ab, g.deck + h.deck + int(delta))
    if isinstance(g[0], tuple):
        return tuple(map(compose_one, g, h))
    n = math.isqrt(len(g))
    out = [0.0] * (n * n)
    for i in range(n):
        for j in range(i, n):
            acc = g[i * n + i] * h[i * n + j]
            for k in range(i + 1, j + 1):
                acc = acc + g[i * n + k] * h[k * n + j]
            out[i * n + j] = acc
    return tuple(out)


def verify_loop(act, identity, sample_element, sample_point, named_generators, samples, seed, move_threshold=1e-6):
    """verify_action one sample at a time, with a one-sample act(element, point)."""
    rng = DefaultRNG(seed)
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
                found = (y, disp)
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
            ball = balls[r.integers(0, len(balls))]
        else:  # integers(0, 1) would draw nothing, so one ball is taken as it is
            ball = balls[0] if balls else None
        v = unit_vec(r, n)
        if ball is None:
            return v
        w = r.uniform(0.05, 1.3, 1)[0]
        return tuple(c * w * ball.radius + x for c, x in zip(v, ball.center))

    return sample


def sample_cover(rng):
    """An element of the lifted group: tries of four uniforms in [-1.5, 1.5)
    until ps - qr > 0.05, the matrix divided by the root of that, a deck."""
    while True:
        p, q, r, s = rng.uniform(-1.5, 1.5, 4)
        det = p * s - q * r
        if det > 0.05:
            root = math.sqrt(det)
            return CoverElement.of((p / root, q / root, r / root, s / root), rng.integers(-1, 2))


def cover_point_sampler(disk, n):
    if disk:
        return lambda r: scaled(unit_vec(r, n), r.random(1)[0])
    return lambda r: (r.uniform(0.01, 0.99, 1)[0],)


def one_at_a_time(sampler):
    """The OneAtATimeSampler that draws what `sampler` draws: the oracle
    samplers of a StackedSampler or of a CoverSampler."""
    if isinstance(sampler, CoverSampler):
        return OneAtATimeSampler(sample_cover, cover_point_sampler(sampler.disk, sampler.n), sampler)
    elements = element_sampler(sampler.group, sampler.shape)
    return OneAtATimeSampler(elements, point_sampler(sampler.shape[-1], sampler.balls), sampler)


def kind_parts(kind, group=None, n=2, balls=1):
    """The verify_action arguments of an `act verify` kind (action, sampler,
    generators), as the CLI sets them up, and the oracle: the one-sample action and its samplers."""
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
    act, sampler, _ = ACTIONS[kind][1](v)
    oracle = {
        "sphere": lambda: sphere_one,
        "ball": lambda: partial(ball_one, act.__self__),
        "multiball": lambda: partial(multiball_one, act.__self__),
        "interval": lambda: lambda a, y: (interval_action(a, y[0]),),
        "disk": lambda: disk_one_sample,
    }[kind]()
    return (act, sampler, list(sampler.generators)), (oracle, one_at_a_time(sampler))


class Spy:
    """A sampler that keeps the generator verify_action hands it."""

    def __init__(self, sampler):
        self.sampler = sampler

    def points(self, rng, samples):
        self.rng = rng
        return self.sampler.points(rng, samples)

    def block(self, rng, b):
        return self.sampler.block(rng, b)

    def __getattr__(self, name):  # the group: identity, compose, block_size
        return getattr(self.sampler, name)


def assert_same_as_loop(parts, oracle, samples, seed):
    act, sampler, gens = parts
    one_act, one_sampler = oracle
    seen = {}

    def sample_point(rng):
        seen["rng"] = rng
        return one_sampler.sample_point(rng)

    spy = Spy(sampler)
    batched = verify_action(act, spy, gens, samples=samples, seed=seed)
    loop = verify_loop(one_act, sampler.identity, one_sampler.sample_element, sample_point, gens, samples, seed)
    assert dumps(batched.to_dict()) == dumps(loop.to_dict())
    assert (spy.rng._state, spy.rng._half) == (seen["rng"]._state, seen["rng"]._half)


# (kind, group, n, balls): each matrix kind over ST and U, n = 1..6 (the ball
# kinds need n >= 2), and 1 to 3 balls
MATRIX_CASES = [
    (kind, group, n, 1 + n % 3 if kind == "multiball" else 1)
    for kind in ("sphere", "ball", "multiball") for group in ("ST", "U")
    for n in range(1 if kind == "sphere" else 2, 7)
]
# across the ends of the first block and the block after it
EDGE_SAMPLES = (1, 255, 256, 257)


@pytest.mark.parametrize("kind,group,n,balls", MATRIX_CASES + [("interval", None, 1, 1), ("disk", None, 1, 1),
                                                               ("disk", None, 2, 1), ("disk", None, 4, 1)],
                         ids=lambda x: str(x))
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
    def plant_one(g, y):
        return (y[0] + g[1], *y[1:]) if y[0] > 0.998 else y

    gens = [("still", identity(2)), ("shear", (1.0, 0.5, 0.0, 1.0))]
    draws = (lambda r: random_element(r, "U", 2), lambda r: tuple(r.random(2)))
    group = StackedSampler("U", (2, 2), ())
    batched = verify_action(looped(plant_one), OneAtATimeSampler(*draws, group), gens, samples=2001, seed=7)
    loop = verify_loop(plant_one, identity(2), *draws, gens, samples=2001, seed=7)
    assert dumps(batched.to_dict()) == dumps(loop.to_dict())
    assert batched.witnesses["still"] is None
    point, disp = batched.witnesses["shear"]
    rng = RNG(7)
    points = [tuple(rng.uniform(size=2).tolist()) for _ in range(2001)]
    first = next(i for i, y in enumerate(points) if y[0] > 0.998)
    assert first == 614 and first > 2 * group.block_size
    assert point == points[first] and disp == (points[first][0] + 0.5) - points[first][0]


def test_nan_residual_reports_nan_as_in_the_loop():
    # sends the points whose first coordinate is above 0.99 to NaN, one of
    # them in the middle of the second block
    def nan_at_one(g, y):
        return (math.nan,) * len(y) if y[0] > 0.99 else y

    draws = (lambda r: random_element(r, "U", 2), lambda r: tuple(r.random(2)))
    sampler = OneAtATimeSampler(*draws, StackedSampler("U", (2, 2), ()))
    batched = verify_action(looped(nan_at_one), sampler, [], samples=600, seed=3)
    loop = verify_loop(nan_at_one, identity(2), *draws, [], samples=600, seed=3)
    assert math.isnan(batched.max_identity_residual) and math.isnan(batched.max_composition_residual)
    assert dumps(batched.to_dict()) == dumps(loop.to_dict())


def test_ball_sends_a_point_with_a_nan_coordinate_through_the_formula():
    # a NaN radius is neither inside nor outside the annulus: like the
    # one-sample formula, the block evaluator makes every coordinate NaN
    ball = make_ball_action("ST", 3)
    g = random_element(DefaultRNG(5), "ST", 3)
    y = (math.nan, 0.2, 0.1)
    got = one(ball.apply, g, y)
    assert all(map(math.isnan, got)) and all(map(math.isnan, ball_one(ball, g, y)))


def test_no_block_evaluation_exceeds_the_block_size():
    # n = 16 with 8 balls: 2048 floats an element, so blocks of 8 samples
    (act, sampler, gens), _ = kind_parts("multiball", "U", 16, 8)
    sizes = []

    def spy(elements, points):
        assert len(elements) == len(points)
        sizes.append(len(points))
        return act(elements, points)

    verify_action(spy, sampler, gens[:4], samples=40)
    assert sampler.block_size == BLOCK_FLOATS // (8 * 16 * 16) == 8
    assert max(sizes) == 8
    (act, sampler, gens), _ = kind_parts("sphere", "ST", 3)
    sizes.clear()
    verify_action(spy, sampler, gens, samples=600)
    assert max(sizes) == sampler.block_size == 256


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
    (_, sampler, _), (_, one) = kind_parts(kind, group, n, balls)
    assert isinstance(sampler, StackedSampler)
    b = sampler.block_size
    for samples, seed in ((b - 1, 0), (b, 2**200), (b + 1, 7 * n + balls)):
        rng, ref = DefaultRNG(seed), DefaultRNG(seed)
        points = sampler.points(rng, samples)
        assert _bits_of(points) == _bits_of([one.sample_point(ref) for _ in range(samples)])
        gs, hs, ys = sampler.block(rng, samples)
        want = [(one.sample_element(ref), one.sample_element(ref), one.sample_point(ref)) for _ in range(samples)]
        for got, drawn in zip((gs, hs, ys), zip(*want)):
            assert len(got) == samples and np.shape(got[0]) == np.shape(drawn[0])
            assert _bits_of(got) == _bits_of(drawn)
        assert (rng._state, rng._half) == (ref._state, ref._half)


# -- the group of each kind ----------------------------------------------------------------
#
# The sampler of every `act verify` kind, as the CLI sets it up, owns its group:
# ST(n) or U(n) for the sphere and one ball, a product of one factor per ball for
# a multiball, the lifted SL(2, R) for the interval and the disk.
GROUP_CASES = SAMPLER_CASES + [("interval", None, 1, 1)] + [("disk", None, n, 1) for n in (1, 2, 5, 16)]


@pytest.mark.parametrize("kind,group,n,balls", GROUP_CASES, ids=lambda x: str(x))
def test_each_kind_owns_its_identity_product_and_block_size(kind, group, n, balls):
    (_, sampler, gens), _ = kind_parts(kind, group, n, balls)
    gs, hs, _ = sampler.block(DefaultRNG(n + balls), 8)
    elements = gs + [g for _, g in gens]
    units = [sampler.identity] * len(elements)
    assert sampler.compose(units, elements) == elements and sampler.compose(elements, units) == elements
    if kind in ("interval", "disk"):
        assert sampler.block_size == BLOCK_SAMPLES == 256
        assert [_bits(gh) for gh in sampler.compose(gs, hs)] == [_bits(gh) for gh in cover_compose(gs, hs)]
        return
    k = balls if kind == "multiball" else 1
    assert sampler.block_size == max(1, min(BLOCK_SAMPLES, BLOCK_FLOATS // (k * n * n)))
    mul = triangular_product(n)
    if kind != "multiball":
        assert sampler.identity == identity(n) and gens == generators(group, n)
        assert sampler.compose(gs, hs) == list(map(mul, gs, hs))
        return
    assert sampler.identity == (identity(n),) * k
    assert sampler.compose(gs, hs) == [tuple(map(mul, g, h)) for g, h in zip(gs, hs)]
    # each generator of the group in one factor, the identity in the others
    base = generators(group, n)
    assert len(gens) == k * len(base)
    for t, (name, g) in enumerate(gens):
        j, (base_name, base_g) = t // len(base), base[t % len(base)]
        assert name == f"ball{j + 1}.{base_name}"
        assert g == (identity(n),) * j + (base_g,) + (identity(n),) * (k - j - 1)


# The float facts on which drawing numpy's stream without numpy rests: the
# samplers scale `random` draws themselves, multiply an ST diagonal left to
# right and take its root with Python's `**`, as numpy's one-sample code did.
# A numpy upgrade that breaks one fails here by name.
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
    # numpy's random_element took the root of a numpy float64; the program
    # takes it of a Python float. np.power on an array is not used: its SIMD
    # loop rounds some powers differently (AVX-512).
    rng = RNG(13)
    for n in range(1, 17):
        for p in rng.uniform(0.5, 2.0, (500, n)).prod(axis=1):
            assert (p ** (1.0 / n)).hex() == (float(p) ** (1.0 / n)).hex()


# -- the program against the numpy reference ------------------------------------------------
#
# Every kind: the blocks against numpy's one-sample evaluations, and whole
# reports against the loop as it ran on numpy, within ROUNDING_BOUND; and the
# generator of every act golden scenario ends where numpy's does.

REFERENCE_CASES = [("sphere", "ST", 5, 1), ("sphere", "U", 3, 1), ("sphere", "U", 16, 1), ("ball", "ST", 3, 1),
                   ("ball", "U", 5, 1), ("ball", "ST", 16, 1), ("multiball", "ST", 5, 3), ("multiball", "U", 3, 2),
                   ("multiball", "ST", 16, 8), ("interval", None, 1, 1), ("disk", None, 2, 1), ("disk", None, 5, 1)]


@pytest.mark.parametrize("kind,group,n,balls", REFERENCE_CASES, ids=lambda x: str(x))
def test_blocks_match_the_numpy_reference(kind, group, n, balls):
    (act, sampler, gens), _ = kind_parts(kind, group, n, balls)
    one_np, _, _ = reference_of(act, sampler)
    rng = DefaultRNG(n + balls)
    gs, hs, ys = sampler.block(rng, 64)
    elements = [g for _, g in gens[:64]] + gs + list(map(compose_one, gs, hs))
    points = [ys[i % len(ys)] for i in range(len(elements))]
    for g, y, got in zip(elements, points, act(elements, points)):
        want = one_np(as_numpy(g), np.array(y))
        assert close(got, want), (g, y)
    for g, h, gh in zip(gs, hs, sampler.compose(gs, hs)):
        want = np_compose(as_numpy(g), as_numpy(h))
        if isinstance(g, CoverElement):
            assert gh.deck == want.deck and close(gh.matrix, want.matrix)
        else:
            assert close(gh, want)


def assert_close_to_reference(report, reference):
    """The same witnesses found at the same points, and every float within
    ROUNDING_BOUND of numpy's."""
    assert report.witnesses.keys() == reference.witnesses.keys()
    for name, w in report.witnesses.items():
        ref = reference.witnesses[name]
        assert (w is None) == (ref is None), name
        if w is not None:
            scale = max(1.0, float(np.abs(ref[0]).max()))
            assert close(w[0], ref[0]) and abs(w[1] - ref[1]) <= ROUNDING_BOUND * scale, name
    for field in ("max_identity_residual", "max_composition_residual"):
        assert abs(getattr(report, field) - getattr(reference, field)) <= ROUNDING_BOUND, field


@pytest.mark.parametrize("kind,group,n,balls", REFERENCE_CASES, ids=lambda x: str(x))
def test_reports_match_the_numpy_reference(kind, group, n, balls):
    (act, sampler, gens), _ = kind_parts(kind, group, n, balls)
    samples = 40 if n == 16 else 300
    spy = Spy(sampler)
    report = verify_action(act, spy, gens, samples=samples, seed=n)
    one_np, sample_element, sample_point = reference_of(act, sampler)
    reference, ref_rng = np_verify_loop(one_np, sampler.identity, sample_element, sample_point, gens, samples, n, 1e-6)
    assert_close_to_reference(report, reference)
    assert spy.rng._state == ref_rng.bit_generator.state["state"]["state"]


def _act_goldens():
    for path in sorted(SCENARIOS.glob("*.json")) + sorted(GOLDEN.glob("*.scenario.json")):
        if "action" in json.loads(path.read_text()):
            yield path


@pytest.mark.parametrize("path", list(_act_goldens()), ids=lambda p: p.name)
def test_generator_ends_where_numpy_ends_on_every_act_golden(path):
    # the goldens run at seed 0 unless the scenario names one; the numpy
    # reference draws the points, then g, h and y of each composition sample
    scenario = json.loads(path.read_text())
    keys, setup = ACTIONS[scenario["action"]]
    values = read_object(scenario, {**ACT_KEYS, **keys}, "the scenario")
    act, sampler, _ = setup(values)
    seed = 0 if values["seed"] is None else values["seed"]
    spy = Spy(sampler)
    verify_action(act, spy, sampler.generators, samples=values["samples"], seed=seed)
    _, sample_element, sample_point = reference_of(act, sampler)
    ref = np.random.default_rng(seed)
    for _ in range(values["samples"]):
        sample_point(ref)
    for _ in range(values["samples"]):
        sample_element(ref), sample_element(ref), sample_point(ref)
    state = ref.bit_generator.state
    assert spy.rng._state == state["state"]["state"]
    assert spy.rng._half == (state["uinteger"] if state["has_uint32"] else None)


# -- lifted circle action -----------------------------------------------------------------


def compose(a, b):
    """The composition of one pair, by the block function."""
    (ab,) = cover_compose([a], [b])
    return ab


def test_cover_deck_translation_compose():
    i1 = CoverElement.of((1.0, 0.0, 0.0, 1.0), 1)
    i2 = compose(i1, i1)
    assert i2.deck == 2
    assert abs(cover_eval(i2, 0.3) - (0.3 + 2 * math.pi)) <= 1e-12


def test_cover_composition_pointwise():
    rng = RNG(12)
    worst = 0.0
    for _ in range(100):
        a = CoverElement.of(random_sl2(rng).ravel(), int(rng.integers(-2, 3)))
        b = CoverElement.of(random_sl2(rng).ravel(), int(rng.integers(-2, 3)))
        ab = compose(a, b)
        for theta in rng.uniform(-6, 6, size=4):
            lhs = cover_eval(ab, float(theta))
            rhs = cover_eval(a, cover_eval(b, float(theta)))
            worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-9


def test_cover_associativity():
    rng = RNG(13)
    worst = 0.0
    for _ in range(100):
        a = CoverElement.of(random_sl2(rng).ravel())
        b = CoverElement.of(random_sl2(rng).ravel())
        c = CoverElement.of(random_sl2(rng).ravel())
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        for theta in rng.uniform(-4, 4, size=3):
            worst = max(worst, abs(cover_eval(left, float(theta)) - cover_eval(right, float(theta))))
    assert worst <= 1e-9


def _linalg_det_accepts(a) -> bool:
    """The check CoverElement.of used to make: an LU determinant within 1e-9 of 1."""
    return abs(float(np.linalg.det(a)) - 1.0) <= 1e-9


def _of_accepts(a) -> bool:
    try:
        CoverElement.of(a.ravel())
    except ValueError:
        return False
    return True


def test_cover_determinant_check_matches_linalg_det():
    rng = RNG(16)
    matrices = []
    for _ in range(300):
        drawn = random_sl2(rng)
        a = CoverElement.of(drawn.ravel(), int(rng.integers(-1, 2)))
        b = CoverElement.of(random_sl2(rng).ravel(), int(rng.integers(-1, 2)))
        matrices += [drawn, as_array(compose(a, b)), as_array(_array_inverse(a))]
    # the same matrices with the determinant moved inside, across and far past the tolerance
    scaled = [m * np.array([[1.0 + d], [1.0]]) for m in matrices[:150] for d in (5e-10, -5e-10, 2e-9, -2e-9, 1e-3)]
    for m in matrices + scaled:
        assert _of_accepts(m) == _linalg_det_accepts(m), m
    assert all(_of_accepts(m) for m in matrices)
    assert not all(_of_accepts(m) for m in scaled)
    with pytest.raises(ValueError, match="determinant 1"):
        CoverElement.of((2.0, 0.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="2x2"):
        CoverElement.of((1.0, 0.0, 1.0))


def test_cover_deck_equivariance():
    rng = RNG(14)
    worst = 0.0
    for _ in range(20):
        a = CoverElement.of(random_sl2(rng).ravel(), int(rng.integers(-1, 2)))
        for theta in rng.uniform(-6, 6, size=100):
            worst = max(
                worst,
                abs(cover_eval(a, float(theta) + math.pi) - cover_eval(a, float(theta)) - math.pi),
            )
    assert worst <= 1e-9


# The lift, evaluation, composition and inverse as they were when they read the
# matrix through a numpy array on every call: the oracle of the tuple versions.
# The product is written out entry by entry, as the program computes it.
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
    return _array_lift(as_array(a), theta) + a.deck * math.pi


def _array_compose(a: CoverElement, b: CoverElement) -> CoverElement:
    a_arr, b_arr = as_array(a), as_array(b)
    ab = np.array([[a_arr[i, 0] * b_arr[0, j] + a_arr[i, 1] * b_arr[1, j] for j in range(2)] for i in range(2)])
    delta = round((_array_lift(a_arr, _array_lift(b_arr, 0.0)) - _array_lift(ab, 0.0)) / math.pi)
    return CoverElement.of(ab.ravel(), a.deck + b.deck + int(delta))


def _array_inverse(a: CoverElement) -> CoverElement:
    arr = as_array(a)
    raw = CoverElement.of((arr[1, 1], -arr[0, 1], -arr[1, 0], arr[0, 0]), -a.deck)
    shift = round(_array_eval(_array_compose(a, raw), 0.0) / math.pi)
    return CoverElement(raw.matrix, raw.deck - int(shift))


def _bits(element: CoverElement):
    return [x.hex() for row in element.matrix for x in row], element.deck


def test_cover_operations_match_the_array_versions_bit_for_bit():
    rng = RNG(17)
    for _ in range(300):
        a = CoverElement.of(random_sl2(rng).ravel(), int(rng.integers(-3, 4)))
        b = CoverElement.of(random_sl2(rng).ravel(), int(rng.integers(-3, 4)))
        # negative angles, angles past several deck shifts, and the multiples of pi
        for theta in [*rng.uniform(-12.0, 12.0, size=6), -math.pi, 0.0, math.pi, -3 * math.pi]:
            assert cover_eval(a, float(theta)).hex() == _array_eval(a, float(theta)).hex()
        assert _bits(compose(a, b)) == _bits(_array_compose(a, b))


def test_cover_base_normalization():
    rng = RNG(15)
    for _ in range(50):
        a = CoverElement.of(random_sl2(rng).ravel())
        base = cover_eval(a, 0.0)
        assert 0.0 <= base < math.pi


def _random_elements(rng, count, decks=3):
    return [CoverElement.of(random_sl2(rng).ravel(), int(rng.integers(-decks, decks + 1))) for _ in range(count)]


def test_block_composition_matches_one_pair_at_a_time_bit_for_bit():
    # the block products are the entry-by-entry products of one pair
    rng = RNG(21)
    gens = [g for _, g in CoverSampler.generators] + [CoverSampler.identity]
    for b in (1, 2, 7, 256, 1000):
        gs = _random_elements(rng, b) + gens
        hs = _random_elements(rng, b) + gens[::-1]
        assert [_bits(ab) for ab in cover_compose(gs, hs)] == [_bits(compose_one(g, h)) for g, h in zip(gs, hs)]
    assert cover_compose([], []) == []


def _cover_draws(sampler, rng, samples, blocks):
    """What `sampler` draws for `verify_action`: the points, then a block of
    each size in `blocks`; elements as bits, and the generator's state after."""
    drawn = [sampler.points(rng, samples)]
    for b in blocks:
        gs, hs, ys = sampler.block(rng, b)
        drawn.append(([_bits(g) for g in gs], [_bits(h) for h in hs], ys))
    return drawn, (rng._state, rng._half)


@pytest.mark.parametrize("disk,n", [(False, 1), (True, 1), (True, 2), (True, 3), (True, 16)])
def test_cover_sampler_draws_what_the_one_sample_loop_draws(disk, n):
    blocks = (1, 255, 256, 257, 3)  # not multiples of the block size, across its ends
    for seed in range(12):
        for samples in (1, 3, 257):
            got = _cover_draws(CoverSampler(disk, n), DefaultRNG(seed), samples, blocks)
            want = _cover_draws(one_at_a_time(CoverSampler(disk, n)), DefaultRNG(seed), samples, blocks)
            assert got == want, (seed, samples)


class BandGenerator:
    """A stand-in for DefaultRNG whose uniforms come from a script, in which
    every second try of four makes a matrix whose determinant ps - qr is
    within 1e-9 of the threshold 0.05, on either side of it or on it. Normals
    and decks come from a real generator."""

    def __init__(self, seed):
        self.rng = DefaultRNG(seed)
        self.script = []
        self.band = 0
        self._state = self._half = None  # read by _cover_draws; the script's state is the script

    def _next(self):
        if not self.script:
            self._refill()
        return self.script.pop(0)

    def _refill(self):
        u = self.rng.random(4)
        self.script += u
        p, q, r = [-1.5 + 3.0 * x for x in u[:3]]
        for target in (0.05, 0.05 + 4e-10, 0.05 - 4e-10, 0.05 + 3e-17):
            x = ((target + q * r) / p + 1.5) / 3.0
            s = -1.5 + 3.0 * x
            if abs(p) > 0.2 and 0.0 <= x < 1.0 and abs(p * s - q * r - 0.05) <= 1e-9:
                self.script += [u[0], u[1], u[2], x]
                self.band += 1
                return

    def random(self, k):
        return [self._next() for _ in range(k)]

    def uniform(self, low, high, k):
        return [low + (high - low) * u for u in self.random(k)]

    def integers(self, low, high):
        return self.rng.integers(low, high)

    def normal(self, k):
        return self.rng.normal(k)


def test_cover_sampler_decides_tries_near_the_threshold_by_ps_minus_qr():
    for seed in range(6):
        for disk, n in ((False, 1), (True, 2)):
            stubs = BandGenerator(seed), BandGenerator(seed)
            got = _cover_draws(CoverSampler(disk, n), stubs[0], 5, (40, 17))
            want = _cover_draws(one_at_a_time(CoverSampler(disk, n)), stubs[1], 5, (40, 17))
            assert got == want and stubs[0].script == stubs[1].script
            assert stubs[0].band > 50  # tries in the band were drawn, and judged alike


def test_interval_and_disk_blocks_match_the_one_sample_forms():
    rng = RNG(22)
    elements = _random_elements(rng, 300) + [CoverSampler.identity] + [g for _, g in CoverSampler.generators]
    b = len(elements)
    s = [(u,) for u in rng.uniform(0.0, 1.0, size=b).tolist()]
    s[:3] = [(0.0,), (1.0,), (0.5,)]
    got = interval_block(elements, s)
    assert len(got) == b and got == [(interval_action(a, y[0]),) for a, y in zip(elements, s)]
    for n in (1, 2, 5):
        y = rng.normal(size=(b, n))
        y *= rng.uniform(0.0, 1.0, size=(b, 1)) / np.sqrt((y * y).sum(axis=1, keepdims=True))
        y[0] = 0.0
        y[1] = np.eye(n)[0]  # on the boundary, fixed exactly
        points = [tuple(row) for row in y.tolist()]
        assert _bits_of(disk_block(elements, points)) == _bits_of(looped(disk_one_sample)(elements, points))


# -- interval and disk ----------------------------------------------------------------------


def test_interval_endpoints_fixed_exactly():
    rng = RNG(16)
    for _ in range(20):
        a = CoverElement.of(random_sl2(rng).ravel(), int(rng.integers(-2, 3)))
        assert interval_action(a, 0.0) == 0.0
        assert interval_action(a, 1.0) == 1.0


def test_interval_identity_element():
    ident = CoverSampler.identity
    for s in (0.0, 0.2, 0.5, 0.9, 1.0):
        assert abs(interval_action(ident, s) - s) <= 1e-12


def test_interval_composition_and_nondegeneracy():
    rng = RNG(17)
    worst = 0.0
    for _ in range(200):
        a = CoverElement.of(random_sl2(rng).ravel())
        b = CoverElement.of(random_sl2(rng).ravel())
        ab = compose(a, b)
        s = rng.uniform(0.01, 0.99)
        lhs = interval_action(ab, s)
        rhs = interval_action(a, interval_action(b, s))
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-6
    # nondegeneracy witness: the rotation generator moves the midpoint
    rot = CoverElement.of((math.cos(0.7), -math.sin(0.7), math.sin(0.7), math.cos(0.7)))
    assert abs(interval_action(rot, 0.5) - 0.5) > 1e-6


def test_interval_domain_validation():
    a = CoverSampler.identity
    with pytest.raises(ValueError):
        interval_action(a, -0.1)
    with pytest.raises(ValueError):
        interval_action(a, 1.1)


def disk_one(a, y):
    """The disk action of one element on one point, by the block function."""
    return disk_block([a], [tuple(y)])[0]


def test_disk_action_boundary_and_center_fixed():
    rng = RNG(18)
    a = CoverElement.of(random_sl2(rng).ravel())
    boundary = (0.6, 0.8)
    assert disk_one(a, boundary) == boundary
    assert disk_one(a, (0.0, 0.0)) == (0.0, 0.0)


def test_disk_action_composition():
    rng = RNG(19)
    worst = 0.0
    for _ in range(100):
        a = CoverElement.of(random_sl2(rng).ravel())
        b = CoverElement.of(random_sl2(rng).ravel())
        ab = compose(a, b)
        v = rng.normal(size=2)
        y = v / np.linalg.norm(v) * rng.uniform(0.05, 0.95)
        lhs = disk_one(ab, y)
        rhs = disk_one(a, disk_one(b, y))
        worst = max(worst, gap(lhs, rhs))
    assert worst <= 1e-6


def test_disk_rejects_outside_points():
    a = CoverSampler.identity
    with pytest.raises(ValueError):
        disk_one(a, (1.2, 0.0))
