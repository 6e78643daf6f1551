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
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

import numpy as np

from .constants import DEFAULT_SEED, max_residual
from .deformations import bump_group_deformation
from .matrixgroups import _strict_upper

__all__ = [
    "sphere_action",
    "BallAction",
    "make_ball_action",
    "MultiBall",
    "ActionReport",
    "verify_action",
    "OneAtATimeSampler",
    "StackedSampler",
    "looped",
    "CoverElement",
    "cover_identity",
    "cover_eval",
    "cover_compose",
    "interval_action",
    "disk_action",
]


# -- sphere and ball ------------------------------------------------------


def _norms(y: np.ndarray) -> np.ndarray:
    """The Euclidean norms of a stack of vectors (..., n), shaped (..., 1).

    Each is sqrt(v.dot(v)) bit for bit, which is what np.linalg.norm
    computes for one float vector: a stacked (1, n) @ (n, 1) product is the
    same dot product, and np.sqrt is correctly rounded like math.sqrt.
    """
    return np.sqrt(y[..., None, :] @ y[..., :, None])[..., 0]


def sphere_action(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Projective-style action x -> gx/|gx| on the unit sphere, of one
    matrix on one point or of a stack (..., n, n) on a stack (..., n)."""
    y = (g @ x[..., None])[..., 0]  # a stacked g @ x, bit for bit
    norm = _norms(y)
    if (norm < 1e-300).any():
        raise ValueError("matrix is singular along this direction")
    return y / norm


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
    def center_array(self) -> np.ndarray:
        return np.asarray(self.center, dtype=float)

    @cached_property
    def _log_radii(self) -> tuple[float, float]:
        """(log r1, log r1 - log r0), worked out once."""
        log_r1 = math.log(self.r1)
        return log_r1, log_r1 - math.log(self.r0)

    def apply(self, gs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The action of gs[s] on ys[s] for a block: a stack of matrices
        (b, n, n) and a stack of points (b, n). Points off the open annulus
        are returned as they are; the deformation time of each moved point
        is worked out one sample at a time with `math.log`."""
        center = self.center_array
        log_r1, log_span = self._log_radii
        u = ys - center
        r = _norms(u)
        rel = r[:, 0] / self.radius
        out = ys.copy()
        # not (rel <= r0 or rel >= r1): a NaN radius moves, as in the formula
        (moved,) = (~((rel <= self.r0) | (rel >= self.r1))).nonzero()
        if moved.size:
            # map radius to deformation time: rel = r1 -> 0, rel = r0 -> 1
            ts = [(log_r1 - math.log(x)) / log_span for x in rel[moved].tolist()]
            r = r[moved]
            xp = sphere_action(self.deformation.apply_many(ts, gs[moved]), u[moved] / r)
            out[moved] = center + r * xp
        return out


def make_ball_action(
    group: str,
    n: int,
    r0: float = 0.3,
    r1: float = 0.9,
    center=None,
    radius: float = 1.0,
) -> BallAction:
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
                dist = float(
                    np.linalg.norm(np.asarray(pa.center) - np.asarray(pb.center))
                )
                if dist <= pa.radius + pb.radius:
                    raise ValueError(
                        f"balls {a} and {b} overlap: centers at distance {dist}, "
                        f"radius sum {pa.radius + pb.radius}"
                    )
        return self

    def apply(self, elements: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The action on a block: elements is a stack (b, k, n, n) of one
        matrix per ball, ys a stack (b, n) of points."""
        if elements.shape[1] != len(self.balls):
            raise ValueError("one group element per ball required")
        for j, ball in enumerate(self.balls):
            ys = ball.apply(elements[:, j], ys)
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
# n x n matrices): each stack of elements stays within 128 KB, also for
# n = 16 with 8 balls, so a run's peak memory stays near that of one sample
# at a time.
BLOCK_SAMPLES = 256
BLOCK_FLOATS = 1 << 14


def block_size(identity) -> int:
    """The samples in one block of `verify_action` for this identity element."""
    if isinstance(identity, CoverElement):
        return BLOCK_SAMPLES
    return max(1, min(BLOCK_SAMPLES, BLOCK_FLOATS // np.size(identity)))


def _gaps(a: np.ndarray, b: np.ndarray) -> list[float]:
    """The largest coordinate difference of each pair of rows (NaN if any is NaN)."""
    return np.abs(a - b).max(axis=1).tolist()


def looped(act):
    """The block evaluator of a one-sample action act(element, point), for
    the actions whose evaluation does not batch bit for bit."""
    return lambda elements, points: np.array([act(g, y) for g, y in zip(elements, points)])


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
    points[s] for a stack of points (b, d). Group elements are matrices, or
    tuples of k matrices for a product group, which go to `act` as float
    stacks (b, n, n) or (b, k, n, n) and compose by a stacked `@`; or they
    are CoverElements, which go as lists and compose by `cover_compose`.

    `sampler` draws from the generator of `seed`: `sampler.points(rng,
    samples)`, the points of the identity and witness checks as the rows of
    one float array, and then, for each block of at most
    `block_size(identity)` composition samples, `sampler.block(rng, b)`, the
    block's (gs, hs, ys) as `act` takes them. A `StackedSampler` or a
    `OneAtATimeSampler` draws what a loop that checks one sample after the
    other draws, in its order (all points first, then g, h and y for each
    composition sample). The residuals are folded in sample order, and a
    witness is the first point in sample order that moves, so the report is
    that of the one-sample loop, bit for bit.
    """
    rng = np.random.default_rng(seed)
    block = block_size(identity)
    if isinstance(identity, CoverElement):
        compose = lambda gs, hs: [cover_compose(g, h) for g, h in zip(gs, hs)]
        repeat = lambda g: [g] * block
    else:
        compose = np.matmul
        repeat = lambda g: np.broadcast_to(g, (block, *np.shape(g)))  # a block's worth of g, as a view
    points = sampler.points(rng, samples)
    id_res = comp_res = 0.0
    identities = repeat(identity)
    for start in range(0, samples, block):
        ys = points[start:start + block]
        id_res = max_residual(id_res, *_gaps(act(identities[:len(ys)], ys), ys))
    for start in range(0, samples, block):
        gs, hs, ys = sampler.block(rng, min(block, samples - start))
        comp_res = max_residual(comp_res, *_gaps(act(compose(gs, hs), ys), act(gs, act(hs, ys))))
    witnesses = {
        name: _first_moved(act, repeat(gen), points, block, move_threshold) for name, gen in named_generators
    }
    return ActionReport(id_res, comp_res, witnesses, samples, seed, move_threshold)


class OneAtATimeSampler(namedtuple("OneAtATimeSampler", "sample_element sample_point")):
    """The sampler of `verify_action` that draws each group element and each
    point with its own calls, sample_element(rng) and sample_point(rng): the
    interval and disk kinds, whose `random_sl2` rejects on `np.linalg.det`
    and so does not stack."""

    def points(self, rng, samples: int) -> np.ndarray:
        """`samples` points drawn one at a time, as the rows of one float array
        (a list of the small arrays beside it would double the peak memory)."""
        points = np.empty((samples, 0))
        for s in range(samples):
            y = self.sample_point(rng)
            if s == 0:
                points = np.empty((samples, len(y)))
            points[s] = y
        return points

    def block(self, rng, b: int) -> tuple:
        """g, h and y for each of b samples, as `act` takes them."""
        gs, hs, ys = [], [], []
        for _ in range(b):
            gs.append(self.sample_element(rng))
            hs.append(self.sample_element(rng))
            ys.append(self.sample_point(rng))
        stack = list if isinstance(gs[0], CoverElement) else np.array
        return stack(gs), stack(hs), np.array(ys)


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """The values of `Generator.uniform(low, high)` for its `random()` draws u."""
    return low + (high - low) * u


class StackedSampler(namedtuple("StackedSampler", "group shape balls")):
    """The sampler of `verify_action` for the sphere, ball and multiball
    kinds: elements of the matrix group `group` ("ST" or "U") of shape
    (n, n), or (k, n, n) for a tuple of k factors; points on the unit sphere
    when `balls` is empty, else in one of the BallActions `balls`.

    It makes the generator draws of `matrixgroups.random_element` for each
    factor of g and then of h, and of a point (a ball index when there are
    several balls, a normal vector, and a radius inside a ball), in the same
    order, but with one `random` call for all the uniforms of a sample's g
    and h. A block's matrices and points are then finished with array
    operations that round as the one-sample code does: uniforms as
    low + (high - low) u, the diagonal product from left to right, its n-th
    root by Python's `**` one sample at a time, and norms by `_norms`.
    """

    @cached_property
    def _sizes(self) -> tuple[int, int, int]:
        """(n, k, the uniforms of one factor of one element)."""
        n = self.shape[-1]
        k = math.prod(self.shape[:-2])
        return n, k, n * (n - 1) // 2 + (n if self.group == "ST" else 0)

    def points(self, rng, samples: int) -> np.ndarray:
        n = self._sizes[0]
        if not self.balls:  # the normal vectors are the only draws, so one call makes them all
            points = rng.normal(size=(samples, n))
            points /= _norms(points)
            return points
        points = np.empty((samples, n))
        for start in range(0, samples, BLOCK_SAMPLES):  # finished a chunk at a time, in place
            self._draw(rng, points[start:start + BLOCK_SAMPLES])
        return points

    def block(self, rng, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n, k, per_factor = self._sizes
        uniforms = np.empty((b, 2, k, per_factor))
        ys = np.empty((b, n))
        self._draw(rng, ys, uniforms.reshape(b, -1))
        return self._elements(uniforms[:, 0]), self._elements(uniforms[:, 1]), ys

    def _draw(self, rng, ys: np.ndarray, uniforms: np.ndarray | None = None) -> None:
        """Draw one sample after the other: the row of `uniforms`, if given,
        then a point into the row of `ys`; then finish the points in place."""
        balls, n = self.balls, self._sizes[0]
        b = len(ys)
        which = np.zeros(b, dtype=np.intp)
        radii = np.empty(b)
        for s in range(b):
            if uniforms is not None:
                rng.random(out=uniforms[s])
            if len(balls) > 1:  # integers(0, 1) would draw nothing, so one ball is taken as it is
                which[s] = rng.integers(0, len(balls))
            ys[s] = rng.normal(size=n)
            if balls:
                radii[s] = rng.random()
        ys /= _norms(ys)
        if balls:
            # center + (v * uniform(0.05, 1.3)) * radius
            ys *= _uniform(radii, 0.05, 1.3)[:, None]
            ys *= self._ball_radii[which]
            ys += self._ball_centers[which]

    @cached_property
    def _ball_centers(self) -> np.ndarray:
        return np.array([ball.center_array for ball in self.balls])

    @cached_property
    def _ball_radii(self) -> np.ndarray:
        return np.array([[ball.radius] for ball in self.balls])

    def _elements(self, uniforms: np.ndarray) -> np.ndarray:
        """The elements of a block from their uniforms (b, k, per factor)."""
        n, k, _ = self._sizes
        b = len(uniforms)
        g = np.zeros((b, k, n * n))
        if self.group == "ST":
            diag = _uniform(uniforms[..., :n], 0.5, 2.0)
            prod = diag[..., 0]
            for j in range(1, n):
                prod = prod * diag[..., j]
            root = np.array([p ** (1.0 / n) for p in prod.ravel().tolist()]).reshape(b, k, 1)
            g[..., :: n + 1] = diag / root
            uniforms = uniforms[..., n:]
        else:
            g[..., :: n + 1] = 1.0
        g[..., _strict_upper(n)] = _uniform(uniforms, -2.0, 2.0)
        return g.reshape(b, *self.shape)


def _first_moved(act, gens, points: np.ndarray, block: int, threshold: float):
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
    def of(a: np.ndarray, deck: int = 0) -> "CoverElement":
        if a.shape != (2, 2):
            raise ValueError("matrix must be 2x2")
        return _cover_element(a.tolist(), deck)

    def as_array(self) -> np.ndarray:
        return np.array(self.matrix, dtype=float)


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


def cover_compose(a: CoverElement, b: CoverElement) -> CoverElement:
    """(A, k)(B, m) = (AB, k + m + delta) where delta in {-1, 0, 1}
    corrects the normalization of the composed lift."""
    ab = (a.as_array() @ b.as_array()).tolist()
    delta = round((_lift_eval(a.matrix, _lift_eval(b.matrix, 0.0)) - _lift_eval(ab, 0.0)) / math.pi)
    return _cover_element(ab, a.deck + b.deck + int(delta))


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


def disk_action(a: CoverElement, y: np.ndarray) -> np.ndarray:
    """Interval action on every radius of the closed unit disk;
    the boundary sphere is fixed exactly."""
    y = np.asarray(y, dtype=float)
    r = math.sqrt(y.dot(y))
    if r > 1.0 + 1e-12:
        raise ValueError("point must lie in the closed unit disk")
    if r == 0.0 or r >= 1.0:
        return y.copy()
    return y * (interval_action(a, r) / r)
