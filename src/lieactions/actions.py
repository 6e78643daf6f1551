"""Concrete group actions on spheres, balls, disks and the interval, with
a generic action-axiom verifier.

`BallAction` is built from a bump family of group endomorphisms (trivial
at both parameter ends): a point at distance r from the ball's center
moves on its sphere by the endomorphism at a time affine in log r, so the
action is the identity outside an annulus inside the ball. `MultiBall`
places several of them side by side.

The interval and disk actions lift the projective circle action of
SL(2, R) to the line and conjugate it into (0, 1); elements of the
lifted group are a matrix plus a deck index.

Points are tuples of Python floats, elements of ST(n) and U(n) are flat
row-major tuples (`matrixgroups`), and a block of samples is a list of
each. The sphere and ball actions run as straight-line code compiled once
per dimension, with every sum taken left to right, so a report is a
function of its input and seed alone.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache, cached_property
from operator import sub

from .constants import DEFAULT_SEED, compile_function, max_residual
from .matrixgroups import element_maker, triangular_product, uniform_count, unpack
from .pcg64 import DefaultRNG

__all__ = [
    "sphere_action",
    "BallAction",
    "make_ball_action",
    "MultiBall",
    "ActionReport",
    "verify_action",
    "StackedSampler",
    "CoverSampler",
    "CoverElement",
    "cover_identity",
    "cover_eval",
    "cover_compose",
    "interval_action",
    "interval_block",
    "disk_block",
]


# -- compiled kernels -------------------------------------------------------


def _names(name: str, n: int) -> str:
    """"name0, name1, ..., name{n-1}, ": a target that unpacks a point."""
    return "".join(f"{name}{i}, " for i in range(n))


def _square_sum(name: str, n: int) -> str:
    """The sum of squares of name0 .. name{n-1}, left to right."""
    return " + ".join(f"{name}{i} * {name}{i}" for i in range(n))


@cache
def _norm(n: int):
    """norm(v): sqrt(v_0^2 + ... + v_(n-1)^2) of a point of R^n, the sum
    left to right (not `sum`, which compensates from Python 3.12 on)."""
    lines = ["def norm(v):", f"    {_names('v', n)}= v", f"    return sqrt({_square_sum('v', n)})"]
    return compile_function(lines, "norm", f"<norm {n}>")


@cache
def _sphere_block(n: int):
    """act(gs, xs): gs[s] x_s / |gs[s] x_s| for a block, the matrices upper
    triangular; (g x)_i = g_ii x_i + ... + g_i,n-1 x_n-1 left to right."""
    rows = [" + ".join(f"g{i}_{j} * x{j}" for j in range(i, n)) for i in range(n)]
    lines = [
        "def act(gs, xs):", "    out = []", "    append = out.append", "    for g, x in zip(gs, xs):",
        f"        {unpack('g', n)} = g", f"        {_names('x', n)}= x",
        *[f"        y{i} = {row}" for i, row in enumerate(rows)],
        f"        norm = sqrt({_square_sum('y', n)})",
        "        if norm < 1e-300:", "            raise ValueError('matrix is singular along this direction')",
        f"        append(({''.join(f'y{i} / norm, ' for i in range(n))}))", "    return out",
    ]
    return compile_function(lines, "act", f"<sphere action {n}>")


@cache
def _ball_block(n: int):
    """apply(ball, deform, gs, ys) of BallAction in R^n, deform the
    deformation's `apply_many`: the points off the open annulus stay as they
    are; the others move through the deformation and the sphere action, each
    time worked out one sample at a time."""
    lines = [
        "def apply(ball, deform, gs, ys):", f"    {_names('c', n)}= ball.center",
        "    radius, r0, r1 = ball.radius, ball.r0, ball.r1", "    log_r1, log_span = ball._log_radii",
        "    out = list(ys)", "    moved, ts, rs, xs = [], [], [], []",
        "    for s, y in enumerate(ys):", f"        {_names('y', n)}= y",
        *[f"        u{i} = y{i} - c{i}" for i in range(n)],
        f"        r = sqrt({_square_sum('u', n)})", "        rel = r / radius",
        "        if not (rel <= r0 or rel >= r1):  # a NaN radius moves, as in the formula",
        "            moved.append(s)",
        "            ts.append((log_r1 - log(rel)) / log_span)  # rel = r1 -> 0, rel = r0 -> 1",
        "            rs.append(r)", f"            xs.append(({''.join(f'u{i} / r, ' for i in range(n))}))",
        "    if moved:", "        gs = deform(ts, [gs[s] for s in moved])",
        f"        for s, r, ({_names('x', n)}) in zip(moved, rs, sphere(gs, xs)):",
        f"            out[s] = ({''.join(f'c{i} + r * x{i}, ' for i in range(n))})", "    return out",
    ]
    return compile_function(lines, "apply", f"<ball action {n}>", sphere=_sphere_block(n))


@cache
def _unit(n: int):
    """unit(v): v / |v| for a point v of R^n, coordinate by coordinate."""
    lines = ["def unit(v):", f"    {_names('v', n)}= v", f"    norm = sqrt({_square_sum('v', n)})",
             f"    return ({''.join(f'v{i} / norm, ' for i in range(n))})"]
    return compile_function(lines, "unit", f"<unit {n}>")


@cache
def _in_ball(n: int):
    """in_ball(v, w, radius, center): ((v / |v|) w) radius + center for a
    point v of R^n, coordinate by coordinate."""
    lines = ["def in_ball(v, w, radius, c):", f"    {_names('v', n)}= v", f"    {_names('c', n)}= c",
             f"    norm = sqrt({_square_sum('v', n)})",
             f"    return ({''.join(f'v{i} / norm * w * radius + c{i}, ' for i in range(n))})"]
    return compile_function(lines, "in_ball", f"<point in a ball {n}>")


# -- sphere and ball ------------------------------------------------------


def sphere_action(gs, xs) -> list[tuple]:
    """Projective-style action x -> gx/|gx| on the unit sphere of R^n, of
    gs[s] on xs[s] for a block: upper-triangular matrices (flat tuples) and
    points (tuples)."""
    return _sphere_block(len(xs[0]))(gs, xs) if xs else []


class BallAction(namedtuple("BallAction", "group n deformation r0 r1 center radius")):
    """Compactly supported action inside a coordinate ball of R^n, with
    `center` a tuple of floats.

    The deformation must be a bump family (trivial endomorphism outside
    (0, 1)); the action is then exactly the identity off the open
    annulus r0 < |y - center|/radius < r1 and smooth everywhere.
    """

    _make = classmethod(lambda cls, fields: cls(*fields))  # run the checks of __new__ in _make and _replace too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (0.0 < self.r0 < self.r1 <= 1.0):
            raise ValueError("annulus radii must satisfy 0 < r0 < r1 <= 1")
        if self.radius <= 0.0:
            raise ValueError("ball radius must be positive")
        if len(self.center) != self.n:
            raise ValueError("center dimension mismatch")
        return self

    @cached_property
    def _log_radii(self) -> tuple[float, float]:
        """(log r1, log r1 - log r0), worked out once."""
        log_r1 = math.log(self.r1)
        return log_r1, log_r1 - math.log(self.r0)

    def apply(self, gs, ys) -> list[tuple]:
        """The action of gs[s] on ys[s] for a block of matrices and points.
        A point y at distance r from the center, at rel = r / radius strictly
        inside the annulus, moves to center + r x', x' the sphere action on
        (y - center) / r of the deformation at time (log r1 - log rel) /
        (log r1 - log r0); any other point is returned as it is."""
        return _ball_block(self.n)(self, self.deformation.apply_many, gs, ys)


def make_ball_action(
    group: str,
    n: int,
    r0: float = 0.3,
    r1: float = 0.9,
    center=None,
    radius: float = 1.0,
) -> BallAction:
    from .deformations import bump_group_deformation  # only the ball kinds load deformations

    if center is None:
        center = (0.0,) * n
    return BallAction(
        group, n, bump_group_deformation(group, n), r0, r1, tuple(float(c) for c in center), radius
    )


class MultiBall(namedtuple("MultiBall", "balls")):
    """Product group acting through disjointly supported ball actions
    (`balls` is a tuple of BallActions)."""

    _make = classmethod(lambda cls, fields: cls(*fields))  # run the checks of __new__ in _make and _replace too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for a in range(len(self.balls)):
            for b in range(a + 1, len(self.balls)):
                pa, pb = self.balls[a], self.balls[b]
                dist = _norm(pa.n)(tuple(map(sub, pa.center, pb.center)))
                if dist <= pa.radius + pb.radius:
                    raise ValueError(
                        f"balls {a} and {b} overlap: centers at distance {dist}, "
                        f"radius sum {pa.radius + pb.radius}"
                    )
        return self

    def apply(self, elements, ys) -> list[tuple]:
        """The action on a block: elements[s] is a tuple of one matrix per
        ball, ys[s] a point."""
        if any(len(e) != len(self.balls) for e in elements):
            raise ValueError("one group element per ball required")
        for j, ball in enumerate(self.balls):
            ys = ball.apply([e[j] for e in elements], ys)
        return ys


# -- generic action verification -------------------------------------------


class ActionReport(namedtuple("ActionReport", (
    "max_identity_residual max_composition_residual witnesses samples seed move_threshold"
))):
    """The residuals of the action laws; `witnesses` maps each generator
    name to (point, displacement), or to None when no point moved."""

    def to_dict(self) -> dict:
        wit = {}
        for name, w in self.witnesses.items():
            if w is None:
                wit[name] = None
            else:
                point, disp = w
                wit[name] = {"point": [float(c) for c in point], "displacement": disp}
        return {
            "max_identity_residual": self.max_identity_residual,
            "max_composition_residual": self.max_composition_residual,
            "witnesses": wit,
            "samples": self.samples,
            "seed": self.seed,
            "move_threshold": self.move_threshold,
        }


# A block of samples holds at most BLOCK_SAMPLES samples and at most
# BLOCK_FLOATS floats of group elements (k n^2 per sample for k factors of
# n x n matrices): each list of elements stays within 16K floats, also for
# n = 16 with 8 balls, so a run's peak memory stays near that of one sample
# at a time.
BLOCK_SAMPLES = 256
BLOCK_FLOATS = 1 << 14


def block_size(identity) -> int:
    """The samples in one block of `verify_action` for this identity element."""
    if isinstance(identity, CoverElement):
        return BLOCK_SAMPLES
    floats = sum(map(len, identity)) if isinstance(identity[0], tuple) else len(identity)
    return max(1, min(BLOCK_SAMPLES, BLOCK_FLOATS // floats))


def _composer(identity):
    """compose(gs, hs): the products gs[s] hs[s] of a block of elements
    shaped as `identity`: CoverElements, upper-triangular matrices, or
    tuples of them, one factor at a time."""
    if isinstance(identity, CoverElement):
        return cover_compose
    if isinstance(identity[0], tuple):
        mul = triangular_product(math.isqrt(len(identity[0])))
        return lambda gs, hs: [tuple(map(mul, g, h)) for g, h in zip(gs, hs)]
    mul = triangular_product(math.isqrt(len(identity)))
    return lambda gs, hs: list(map(mul, gs, hs))


def _gaps(a, b) -> list[float]:
    """The largest coordinate difference of each pair of points (NaN if any is NaN)."""
    return [max_residual(0.0, *map(abs, map(sub, p, q))) for p, q in zip(a, b)]


def verify_action(
    act,
    identity,
    sampler,
    named_generators,
    samples: int = 200,
    seed: int = DEFAULT_SEED,
    move_threshold: float = 1e-6,
) -> ActionReport:
    """Check e.y = y and (gh).y = g.(h.y) on seeded samples, and find a
    moved point for every generator (or record that none was found).

    `act(elements, points)` evaluates a block: the action of elements[s] on
    points[s], two lists of equal length. Group elements are upper-triangular
    matrices as flat tuples, or tuples of k of them for a product group,
    which compose factor by factor by `matrixgroups.triangular_product`; or
    they are CoverElements, which compose by `cover_compose`.

    `sampler` draws from `pcg64.DefaultRNG(seed)`, the stream of
    `numpy.random.default_rng(seed)`: `sampler.points(rng, samples)`, the
    points of the identity and witness checks, and then, for each block of
    at most `block_size(identity)` composition samples, `sampler.block(rng,
    b)`, the block's (gs, hs, ys). A `StackedSampler` or a `CoverSampler`
    draws what a loop that checks one sample after the other draws, in its
    order (all points first, then g, h and y for each composition sample).
    The residuals are folded in sample order, and a witness is the first
    point in sample order that moves, so the report is that of the
    one-sample loop, bit for bit.
    """
    rng = DefaultRNG(seed)
    block = block_size(identity)
    compose = _composer(identity)
    points = sampler.points(rng, samples)
    id_res = comp_res = 0.0
    identities = [identity] * block
    for start in range(0, samples, block):
        ys = points[start:start + block]
        id_res = max_residual(id_res, *_gaps(act(identities[:len(ys)], ys), ys))
    for start in range(0, samples, block):
        gs, hs, ys = sampler.block(rng, min(block, samples - start))
        comp_res = max_residual(comp_res, *_gaps(act(compose(gs, hs), ys), act(gs, act(hs, ys))))
    witnesses = {
        name: _first_moved(act, [gen] * block, points, block, move_threshold) for name, gen in named_generators
    }
    return ActionReport(id_res, comp_res, witnesses, samples, seed, move_threshold)


class StackedSampler(namedtuple("StackedSampler", "group shape balls")):
    """The sampler of `verify_action` for the sphere, ball and multiball
    kinds: elements of the matrix group `group` ("ST" or "U") of shape
    (n, n), or tuples of k factors for shape (k, n, n); points on the unit
    sphere when `balls` is empty, else in one of the BallActions `balls`.

    For a composition sample it draws the uniforms of each factor of g and
    then of h with one `random` call (the draws of `matrixgroups.
    random_element` for each, in turn), then a point: a ball index when
    there are several balls, a normal vector, and a radius inside a ball
    (uniform in [0.05, 1.3) times the ball's radius). The points of the
    sphere are drawn with one `normal` call.
    """

    @cached_property
    def _sizes(self) -> tuple[int, int, int]:
        """(n, k, the uniforms of one factor of one element)."""
        n = self.shape[-1]
        k = math.prod(self.shape[:-2])
        return n, k, uniform_count(self.group, n)

    def points(self, rng, samples: int) -> list[tuple]:
        n = self._sizes[0]
        if not self.balls:  # the normal vectors are the only draws, so one call makes them all
            unit = _unit(n)
            normals = rng.normal(samples * n)
            return [unit(normals[i:i + n]) for i in range(0, samples * n, n)]
        return [self._point(rng) for _ in range(samples)]

    def block(self, rng, b: int) -> tuple[list, list, list]:
        n, k, per = self._sizes
        make = element_maker(self.group, n)
        gs, hs, ys = [], [], []
        for _ in range(b):
            u = rng.random(2 * k * per)
            factors = [make(u[i * per:(i + 1) * per]) for i in range(2 * k)]
            if len(self.shape) == 2:
                gs.append(factors[0])
                hs.append(factors[1])
            else:
                gs.append(tuple(factors[:k]))
                hs.append(tuple(factors[k:]))
            ys.append(self._point(rng))
        return gs, hs, ys

    def _point(self, rng) -> tuple:
        balls, n = self.balls, self._sizes[0]
        if not balls:
            return _unit(n)(rng.normal(n))
        # integers(0, 1) would draw nothing, so one ball is taken as it is
        ball = balls[rng.integers(0, len(balls))] if len(balls) > 1 else balls[0]
        v = rng.normal(n)
        return _in_ball(n)(v, rng.uniform(0.05, 1.3, 1)[0], ball.radius, ball.center)


def _first_moved(act, gens, points, block: int, threshold: float):
    """(point, displacement) of the first point that a generator, repeated a
    block's worth in `gens`, moves by at least `threshold`, or None. The
    points are evaluated in chunks of 8, 32, 128, ... samples, at most a
    block, since a witness is mostly found early."""
    start, size = 0, min(8, block)
    while start < len(points):
        ys = points[start:start + size]
        for i, disp in enumerate(_gaps(act(gens[:len(ys)], ys), ys)):
            if disp >= threshold:  # a NaN displacement does not move
                return points[start + i], disp
        start += size
        size = min(4 * size, block)
    return None


# -- lifted circle action ---------------------------------------------------


def _angle_mod_pi(v1: float, v2: float) -> float:
    a = math.atan2(v2, v1) % math.pi
    if a >= math.pi:
        a -= math.pi
    return a


def _lift_eval(a, theta: float) -> float:
    """The unique continuous lift f of the projective action of the 2x2
    matrix a, given as rows of floats, with f(0) in [0, pi).

    The image angle is strictly increasing in theta (the sweep rate is
    det(a)/|a v|^2 > 0), and increases by exactly pi as theta increases
    by pi, so on [0, pi) the increment over f(0) is the mod-pi angle
    difference; deck equivariance extends the formula to all theta.
    """
    (p, q), (r, s) = a
    m = math.floor(theta / math.pi)
    theta0 = theta - m * math.pi
    base = _angle_mod_pi(p, r)
    cos_t, sin_t = math.cos(theta0), math.sin(theta0)
    v1 = p * cos_t + q * sin_t
    v2 = r * cos_t + s * sin_t
    val = _angle_mod_pi(v1, v2)
    inc = (val - base) % math.pi
    if inc >= math.pi:
        inc -= math.pi
    return base + inc + m * math.pi


class CoverElement(namedtuple("CoverElement", "matrix deck")):
    """Element of the lifted projective group: T^deck composed with the
    normalized lift of an SL(2, R) matrix, acting on the line. `matrix` is
    ((a, b), (c, d)), a tuple of rows of Python floats."""

    @staticmethod
    def of(a, deck: int = 0) -> "CoverElement":
        """The element of the matrix with rows (p, q) and (r, s), given as
        the flat (p, q, r, s), and of `deck`."""
        if len(a) != 4:
            raise ValueError("matrix must be 2x2, given as its 4 entries")
        p, q, r, s = a
        return _cover_element(((p, q), (r, s)), deck)


def _cover_element(rows, deck: int) -> CoverElement:
    """The element of the 2x2 matrix `rows` (rows of floats) and `deck`,
    once the matrix is checked to have determinant 1."""
    (p, q), (r, s) = rows
    det = p * s - q * r
    if abs(det - 1.0) > 1e-9:
        raise ValueError(f"matrix must have determinant 1, got {det}")
    return CoverElement(((float(p), float(q)), (float(r), float(s))), deck)


def cover_identity() -> CoverElement:
    return CoverElement(((1.0, 0.0), (0.0, 1.0)), 0)


def cover_eval(a: CoverElement, theta: float) -> float:
    return _lift_eval(a.matrix, theta) + a.deck * math.pi


def cover_compose(gs, hs) -> list[CoverElement]:
    """The products of two equal-length sequences of elements: (A, k)(B, m)
    = (AB, k + m + delta), where delta in {-1, 0, 1} corrects the
    normalization of the composed lift. Each entry of AB is a sum of two
    products, left to right."""
    out = []
    for a, b in zip(gs, hs):
        (p, q), (r, s) = a.matrix
        (p2, q2), (r2, s2) = b.matrix
        ab = ((p * p2 + q * r2, p * q2 + q * s2), (r * p2 + s * r2, r * q2 + s * s2))
        delta = round((_lift_eval(a.matrix, _lift_eval(b.matrix, 0.0)) - _lift_eval(ab, 0.0)) / math.pi)
        out.append(_cover_element(ab, a.deck + b.deck + int(delta)))
    return out


def interval_action(a: CoverElement, s: float) -> float:
    """Action on [0, 1] through the chart s -> ln(s/(1-s)) of (0, 1);
    the endpoints are fixed exactly."""
    if not 0.0 <= s <= 1.0:
        raise ValueError("point must lie in [0, 1]")
    if s == 0.0 or s == 1.0:
        return s
    x = math.log(s / (1.0 - s))
    y = cover_eval(a, x)
    try:
        return 1.0 / (1.0 + math.exp(-y))
    except OverflowError:
        return 0.0


def interval_block(elements, points) -> list[tuple]:
    """The interval action of elements[s] on points[s], for a block of
    points (s,) of [0, 1]."""
    return [(interval_action(a, s),) for a, (s,) in zip(elements, points)]


def disk_block(elements, points) -> list[tuple]:
    """The interval action of elements[s] on every radius of the closed unit
    disk, on points[s], for a block of points of R^n; the boundary sphere is
    fixed exactly. A point y at radius r moves to y * (f(r) / r) for the
    interval action f, and stays where it is at r = 0 or r >= 1."""
    out = []
    norm = _norm(len(points[0])) if points else None
    for a, y in zip(elements, points):
        r = norm(y)
        if r > 1.0 + 1e-12:
            raise ValueError("point must lie in the closed unit disk")
        if r == 0.0 or r >= 1.0:
            out.append(y)
        else:
            scale = interval_action(a, r) / r
            out.append(tuple(c * scale for c in y))
    return out


class CoverSampler(namedtuple("CoverSampler", "disk n")):
    """The sampler of `verify_action` for the interval and disk kinds:
    elements of the lifted SL(2, R) group, and points of [0.01, 0.99) or,
    with `disk`, of the closed unit disk of R^n.

    It makes the draws of the one-sample loop, in its order: for an
    element, tries of four uniforms in [-1.5, 1.5) (one `uniform` call
    each) until one has determinant ps - qr above 0.05, then its deck in
    {-1, 0, 1} (`integers(-1, 2)`); for a point, a uniform in [0.01, 0.99),
    or a normal vector of R^n and then a radius uniform in [0, 1). An
    accepted matrix is divided by the square root of its determinant.
    """

    def points(self, rng, samples: int) -> list[tuple]:
        if self.disk:
            return [self._point(rng) for _ in range(samples)]
        # the uniforms are the only draws, so one call makes them all
        return [(u,) for u in rng.uniform(0.01, 0.99, samples)]

    def block(self, rng, b: int) -> tuple[list, list, list]:
        gs, hs, ys = [], [], []
        for _ in range(b):
            for elements in (gs, hs):
                p, q, r, s = _accepted_try(rng)
                root = math.sqrt(p * s - q * r)
                elements.append(CoverElement(((p / root, q / root), (r / root, s / root)), rng.integers(-1, 2)))
            ys.append(self._point(rng))
        return gs, hs, ys

    def _point(self, rng) -> tuple:
        if not self.disk:
            return (rng.uniform(0.01, 0.99, 1)[0],)
        v = _unit(self.n)(rng.normal(self.n))
        radius = rng.random(1)[0]
        return tuple(c * radius for c in v)


def _accepted_try(rng) -> tuple[float, float, float, float]:
    """(p, q, r, s): tries of four uniforms in [-1.5, 1.5) until the 2x2
    matrix they make has determinant ps - qr above 0.05."""
    while True:
        p, q, r, s = rng.uniform(-1.5, 1.5, 4)
        if p * s - q * r > 0.05:
            return p, q, r, s
