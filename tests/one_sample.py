"""The numpy reference of `act verify`, and the generic one-sample helpers
that tests hand to `verify_action`.

The `np_*` functions, `random_sl2`, `as_array`, `cover_compose_one`,
`disk_action` and the samplers below are the program's one-sample code
from before it ran on the standard library: numpy's generator, `@` and
`np.linalg.det`. They draw exactly the stream that the program draws, so
the generator ends in the same state, but their products and norms round
as numpy's BLAS kernel does; the ported code must agree with them within
ROUNDING_BOUND, relative to the size of the point or matrix compared.

`OneAtATimeSampler` and `looped` serve any hand-written element and point
draws of a test.
"""

import math
from collections import namedtuple

import numpy as np

from lieactions.actions import ActionReport, CoverElement, CoverSampler, _cover_element, _lift_eval, interval_action
from lieactions.constants import max_residual

# the largest difference allowed between the ported code and the numpy
# reference, relative to the largest coordinate of the point (or entry of
# the matrix) compared: a few hundred roundings of the unit 2^-53
ROUNDING_BOUND = 1e-12


class OneAtATimeSampler(namedtuple("OneAtATimeSampler", "sample_element sample_point group")):
    """A sampler of `verify_action` that draws each group element and each
    point with its own calls, sample_element(rng) and sample_point(rng), and
    takes the identity, product and block size of `group`, the sampler of an
    `act verify` kind (a StackedSampler or a CoverSampler)."""

    identity = property(lambda self: self.group.identity)
    block_size = property(lambda self: self.group.block_size)

    def compose(self, gs, hs) -> list:
        return self.group.compose(gs, hs)

    def points(self, rng, samples: int) -> list:
        return [self.sample_point(rng) for _ in range(samples)]

    def block(self, rng, b: int) -> tuple:
        """g, h and y for each of b samples, as `act` takes them."""
        gs, hs, ys = [], [], []
        for _ in range(b):
            gs.append(self.sample_element(rng))
            hs.append(self.sample_element(rng))
            ys.append(self.sample_point(rng))
        return gs, hs, ys


def looped(act):
    """The block evaluator of a one-sample action act(element, point)."""
    return lambda elements, points: [act(g, y) for g, y in zip(elements, points)]


def close(got, want, bound=ROUNDING_BOUND) -> bool:
    """Every coordinate of `got` within `bound` times the largest coordinate
    of `want` (at least 1) of the same coordinate of `want`."""
    got, want = np.asarray(got, dtype=float).ravel(), np.asarray(want, dtype=float).ravel()
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    return got.shape == want.shape and bool((np.abs(got - want) <= bound * scale).all())


# -- the matrix kinds --------------------------------------------------------


def np_random_element(rng: np.random.Generator, group: str, n: int) -> np.ndarray:
    """Random ST(n) or U(n) as an n x n array: for ST, first the diagonal in
    [0.5, 2] renormalized to determinant one; then the strict uppers in
    [-2, 2], in row-major order."""
    g = np.zeros(n * n)
    if group == "ST":
        diag = rng.uniform(0.5, 2.0, size=n)
        g[:: n + 1] = diag / diag.prod() ** (1.0 / n)
    else:
        g[:: n + 1] = 1.0
    rows, cols = np.triu_indices(n, 1)
    g[rows * n + cols] = rng.uniform(-2.0, 2.0, size=len(rows))
    return g.reshape(n, n)


def np_sphere(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x -> gx/|gx| for one matrix and one point."""
    y = g @ x
    norm = math.sqrt(y.dot(y))
    if norm < 1e-300:
        raise ValueError("matrix is singular along this direction")
    return y / norm


def np_deform(gd, t: float, g: np.ndarray) -> np.ndarray:
    """The endomorphism of the group family gd at time t of one matrix:
    entry (i, j), j >= i, times p^(j - i), or the diagonal raised to p."""
    kind, p = gd.state_at(t)
    n = gd.n
    out = np.zeros((n, n))
    rows, cols = np.triu_indices(n)
    if kind == "offdiag":
        out[rows, cols] = g[rows, cols] * np.array([p ** k for k in range(n)])[cols - rows]
    else:
        out[range(n), range(n)] = [d ** p for d in np.diag(g).tolist()]
    return out


def np_ball(ball, g: np.ndarray, y) -> np.ndarray:
    """The ball action of one matrix on one point."""
    center = np.asarray(ball.center, dtype=float)
    y = np.asarray(y, dtype=float)
    u = y - center
    r = math.sqrt(u.dot(u))
    rel = r / ball.radius
    if rel <= ball.r0 or rel >= ball.r1:
        return y.copy()
    t = (math.log(ball.r1) - math.log(rel)) / (math.log(ball.r1) - math.log(ball.r0))
    return center + r * np_sphere(np_deform(ball.deformation, t, g), u / r)


def np_multiball(multiball, elements, y) -> np.ndarray:
    """The multiball action of one tuple of matrices on one point."""
    out = np.asarray(y, dtype=float).copy()
    for ball, g in zip(multiball.balls, elements):
        out = np_ball(ball, g, out)
    return out


def np_point_sampler(n: int, balls=()):
    """A random unit vector of R^n or, given balls, a point of a random one
    at relative radius in [0.05, 1.3), around and across its annulus."""

    def sample(r):
        if len(balls) > 1:
            ball = balls[int(r.integers(0, len(balls)))]
        else:  # integers(0, 1) would draw nothing, so one ball is taken as it is
            ball = balls[0] if balls else None
        v = r.normal(size=n)
        v = v / math.sqrt(v.dot(v))
        return v if ball is None else np.asarray(ball.center) + v * r.uniform(0.05, 1.3) * ball.radius

    return sample


def np_element_sampler(group: str, shape):
    """`np_random_element`, or a tuple of k of them, one factor after the other."""
    n = shape[-1]
    if len(shape) == 2:
        return lambda rng: np_random_element(rng, group, n)
    return lambda rng: tuple(np_random_element(rng, group, n) for _ in range(shape[0]))


# -- the lifted circle kinds ---------------------------------------------------


def random_sl2(rng: np.random.Generator) -> np.ndarray:
    """A 2x2 matrix of uniforms in [-1.5, 1.5), drawn again until its
    `np.linalg.det` is above 0.05, divided by the square root of it."""
    while True:
        a = rng.uniform(-1.5, 1.5, size=(2, 2))
        det = np.linalg.det(a)
        if det > 0.05:
            return a / np.sqrt(det)


def as_array(a: CoverElement) -> np.ndarray:
    """The matrix of an element as a 2x2 float array."""
    return np.array(a.matrix, dtype=float)


def cover_compose_one(a: CoverElement, b: CoverElement) -> CoverElement:
    """(A, k)(B, m) = (AB, k + m + delta) for one pair, AB by one 2x2 `@`."""
    ab = (as_array(a) @ as_array(b)).tolist()
    delta = round((_lift_eval(a.matrix, _lift_eval(b.matrix, 0.0)) - _lift_eval(ab, 0.0)) / math.pi)
    return _cover_element(ab, a.deck + b.deck + int(delta))


def disk_action(a: CoverElement, y) -> np.ndarray:
    """Interval action on every radius of the closed unit disk, of one
    element on one point; the boundary sphere is fixed exactly."""
    y = np.asarray(y, dtype=float)
    r = math.sqrt(y.dot(y))
    if r > 1.0 + 1e-12:
        raise ValueError("point must lie in the closed unit disk")
    if r == 0.0 or r >= 1.0:
        return y.copy()
    return y * (interval_action(a, r) / r)


def sample_cover_element(rng) -> CoverElement:
    return CoverElement.of(random_sl2(rng).ravel(), int(rng.integers(-1, 2)))


def cover_sampler(disk: bool, n: int) -> OneAtATimeSampler:
    """The one-sample sampler of the interval kind, or of the disk kind in R^n."""
    if disk:
        def sample_point(r):
            v = r.normal(size=n)
            return v / math.sqrt(v.dot(v)) * r.uniform(0.0, 1.0)
    else:
        def sample_point(r):
            return np.array([r.uniform(0.01, 0.99)])
    return OneAtATimeSampler(sample_cover_element, sample_point, CoverSampler(disk, n))


# -- whole runs -----------------------------------------------------------------------


def reference_of(act, sampler):
    """(one-sample action, element sampler, point sampler) of numpy for the
    action `act` and the sampler of an `act verify` kind."""
    if isinstance(sampler, CoverSampler):
        draws = cover_sampler(sampler.disk, sampler.n)
        if sampler.disk:
            return disk_action, draws.sample_element, draws.sample_point
        return (lambda a, y: np.array([interval_action(a, float(y[0]))]),
                draws.sample_element, draws.sample_point)
    owner = getattr(act, "__self__", None)
    if owner is None:
        one = np_sphere
    elif hasattr(owner, "balls"):
        one = lambda g, y: np_multiball(owner, g, y)
    else:
        one = lambda g, y: np_ball(owner, g, y)
    return one, np_element_sampler(sampler.group, sampler.shape), np_point_sampler(sampler.shape[-1], sampler.balls)


def as_numpy(element):
    """A program element as the reference takes it: a flat matrix as an n x n
    array, a tuple of them as a tuple of arrays; a CoverElement as it is."""
    if isinstance(element, CoverElement):
        return element
    if isinstance(element[0], tuple):
        return tuple(map(as_numpy, element))
    n = math.isqrt(len(element))
    return np.array(element, dtype=float).reshape(n, n)


def np_compose(g, h):
    if isinstance(g, CoverElement):
        return cover_compose_one(g, h)
    if isinstance(g, tuple):
        return tuple(x @ y for x, y in zip(g, h))
    return g @ h


def np_verify_loop(act, identity, sample_element, sample_point, named_generators, samples, seed, move_threshold):
    """verify_action as the program ran it on numpy, one sample at a time:
    (report, the generator at the end)."""
    gap = lambda a, b: float(np.abs(np.asarray(a) - np.asarray(b)).max())
    rng = np.random.default_rng(seed)
    identity = as_numpy(identity)
    id_res = comp_res = 0.0
    points = [sample_point(rng) for _ in range(samples)]
    for y in points:
        id_res = max_residual(id_res, gap(act(identity, y), y))
    for _ in range(samples):
        g = sample_element(rng)
        h = sample_element(rng)
        y = sample_point(rng)
        comp_res = max_residual(comp_res, gap(act(np_compose(g, h), y), act(g, act(h, y))))
    witnesses = {}
    for name, gen in named_generators:
        gen, found = as_numpy(gen), None
        for y in points:
            disp = gap(act(gen, y), y)
            if disp >= move_threshold:
                found = (np.asarray(y, dtype=float), disp)
                break
        witnesses[name] = found
    return ActionReport(id_res, comp_res, witnesses, samples, seed, move_threshold), rng
