"""Concrete group actions on spheres, cylinders, balls, disks and the
interval, with a generic action-axiom verifier.

The ball actions come in two radial variants built from a group
deformation and the transfer (x, t) -> e^(-t) x between the cylinder
over the sphere and punctured Euclidean space:

* `radial_action` uses a contraction family: it is the honest transfer
  of the suspension, which is the identity near the origin and the full
  sphere action far outside.
* `BallAction` uses a bump family (trivial at both parameter ends) and
  is therefore the identity outside an annulus inside a chosen ball;
  this is the compactly supported variant and the one the multiball
  construction uses.

The interval and disk actions lift the projective circle action of
SL(2, R) to the line and conjugate it into (0, 1); elements of the
lifted group are a matrix plus a deck index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import DEFAULT_SEED
from .deformations import GroupDeformation, bump_group_deformation, max_residual

__all__ = [
    "sphere_action",
    "suspension_act",
    "cylinder_transfer",
    "cylinder_transfer_inverse",
    "BallAction",
    "make_ball_action",
    "radial_action",
    "multiball_action",
    "MultiBall",
    "ActionReport",
    "verify_action",
    "CoverElement",
    "cover_identity",
    "cover_eval",
    "cover_compose",
    "cover_inverse",
    "interval_action",
    "disk_action",
]


# -- sphere, cylinder, ball ----------------------------------------------


def sphere_action(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Projective-style action x -> gx/|gx| on the unit sphere."""
    y = g @ x
    # math.sqrt(v.dot(v)) is what np.linalg.norm computes for a 1-D float array
    norm = math.sqrt(y.dot(y))
    if norm < 1e-300:
        raise ValueError("matrix is singular along this direction")
    return y / norm


def suspension_act(
    defm: GroupDeformation, g: np.ndarray, x: np.ndarray, t: float
) -> tuple[np.ndarray, float]:
    """Action on the cylinder sphere x R: level t acts through the
    endomorphism at time t, levels are invariant."""
    return sphere_action(defm.apply(t, g), x), t


def cylinder_transfer(x: np.ndarray, t: float) -> np.ndarray:
    """Diffeomorphism (x, t) -> e^(-t) x onto punctured space."""
    return math.exp(-t) * x


def cylinder_transfer_inverse(y: np.ndarray) -> tuple[np.ndarray, float]:
    r = float(np.linalg.norm(y))
    if r == 0.0:
        raise ValueError("the origin is not on the cylinder")
    return y / r, -math.log(r)


def radial_action(defm: GroupDeformation, g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Transfer of the suspension of a contraction family to R^n.

    With a contraction family this is the identity map for |y| <= e^(-1)
    and the full sphere action (radially extended) for |y| >= 1; it is
    smooth at the origin but not compactly supported.
    """
    r = float(np.linalg.norm(y))
    if r == 0.0:
        return y.copy()
    x, t = cylinder_transfer_inverse(y)
    kind, p = defm.state_at(t)
    if p == 0.0 and (kind == "diagpow" or defm.group == "U"):
        return np.asarray(y, dtype=float).copy()  # trivial level: exact identity
    xp, _ = suspension_act(defm, g, x, t)
    return cylinder_transfer(xp, t)


@dataclass(frozen=True)
class BallAction:
    """Compactly supported action inside a coordinate ball.

    The deformation must be a bump family (trivial endomorphism outside
    (0, 1)); the action is then exactly the identity off the open
    annulus r0 < |y - center|/radius < r1 and smooth everywhere.
    """

    group: str
    n: int
    deformation: GroupDeformation
    r0: float
    r1: float
    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if not (0.0 < self.r0 < self.r1 <= 1.0):
            raise ValueError("annulus radii must satisfy 0 < r0 < r1 <= 1")
        if self.radius <= 0.0:
            raise ValueError("ball radius must be positive")
        if len(self.center) != self.n:
            raise ValueError("center dimension mismatch")

    @cached_property
    def center_array(self) -> np.ndarray:
        return np.asarray(self.center, dtype=float)

    @cached_property
    def _log_radii(self) -> tuple[float, float]:
        """(log r1, log r1 - log r0), worked out once."""
        log_r1 = math.log(self.r1)
        return log_r1, log_r1 - math.log(self.r0)

    def apply(self, g: np.ndarray, y: np.ndarray) -> np.ndarray:
        center = self.center_array
        log_r1, log_span = self._log_radii
        y = np.asarray(y, dtype=float)
        u = y - center
        r = math.sqrt(u.dot(u))
        rel = r / self.radius
        if rel <= self.r0 or rel >= self.r1:
            return y.copy()
        # map radius to deformation time: rel = r1 -> 0, rel = r0 -> 1
        t = (log_r1 - math.log(rel)) / log_span
        xp = sphere_action(self.deformation.apply(t, g), u / r)
        return center + r * xp


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


@dataclass(frozen=True)
class MultiBall:
    """Product group acting through disjointly supported ball actions."""

    balls: tuple[BallAction, ...]

    def __post_init__(self):
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

    def apply(self, elements, y: np.ndarray) -> np.ndarray:
        if len(elements) != len(self.balls):
            raise ValueError("one group element per ball required")
        out = np.asarray(y, dtype=float).copy()
        for ball, g in zip(self.balls, elements):
            out = ball.apply(g, out)
        return out


def multiball_action(balls, elements, y: np.ndarray) -> np.ndarray:
    return MultiBall(tuple(balls)).apply(elements, y)


# -- generic action verification -------------------------------------------


@dataclass(frozen=True)
class ActionReport:
    max_identity_residual: float
    max_composition_residual: float
    witnesses: dict  # generator name -> (point, displacement) or None
    samples: int
    seed: int
    move_threshold: float

    @property
    def all_generators_effective(self) -> bool:
        return all(w is not None for w in self.witnesses.values())

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


def _gap(a, b) -> float:
    """The largest coordinate difference of two points (NaN if any is NaN)."""
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def verify_action(
    act,
    identity,
    sample_element,
    sample_point,
    named_generators,
    samples: int = 200,
    seed: int = DEFAULT_SEED,
    move_threshold: float = 1e-6,
) -> ActionReport:
    """Check e.y = y and (gh).y = g.(h.y) on seeded samples, and find a
    moved point for every generator (or record that none was found)."""
    rng = np.random.default_rng(seed)
    id_res = 0.0
    comp_res = 0.0
    points = [sample_point(rng) for _ in range(samples)]
    for y in points:
        id_res = max_residual(id_res, _gap(act(identity, y), y))
    for _ in range(samples):
        g = sample_element(rng)
        h = sample_element(rng)
        y = sample_point(rng)
        gh = np.asarray(g) @ np.asarray(h) if isinstance(g, np.ndarray) else compose_pair(g, h)
        lhs = act(gh, y)
        rhs = act(g, act(h, y))
        comp_res = max_residual(comp_res, _gap(lhs, rhs))
    witnesses = {}
    for name, gen in named_generators:
        found = None
        for y in points:
            disp = _gap(act(gen, y), y)
            if disp >= move_threshold:
                found = (np.asarray(y, dtype=float), disp)
                break
        witnesses[name] = found
    return ActionReport(id_res, comp_res, witnesses, samples, seed, move_threshold)


def compose_pair(g, h):
    """Composition for non-matrix group elements: covering-group elements
    and tuples of matrices (product groups)."""
    if isinstance(g, CoverElement):
        return cover_compose(g, h)
    if isinstance(g, (tuple, list)):
        return tuple(np.asarray(x) @ np.asarray(y) for x, y in zip(g, h))
    raise TypeError(f"cannot compose elements of type {type(g).__name__}")


# -- lifted circle action ---------------------------------------------------


def _angle_mod_pi(v1: float, v2: float) -> float:
    a = math.atan2(v2, v1) % math.pi
    if a >= math.pi:
        a -= math.pi
    return a


def _lift_eval(a: np.ndarray, theta: float) -> float:
    """The unique continuous lift f of the projective action of a with
    f(0) in [0, pi).

    The image angle is strictly increasing in theta (the sweep rate is
    det(a)/|a v|^2 > 0), and increases by exactly pi as theta increases
    by pi, so on [0, pi) the increment over f(0) is the mod-pi angle
    difference; deck equivariance extends the formula to all theta.
    """
    m = math.floor(theta / math.pi)
    theta0 = theta - m * math.pi
    base = _angle_mod_pi(a[0, 0], a[1, 0])
    v1 = a[0, 0] * math.cos(theta0) + a[0, 1] * math.sin(theta0)
    v2 = a[1, 0] * math.cos(theta0) + a[1, 1] * math.sin(theta0)
    val = _angle_mod_pi(v1, v2)
    inc = (val - base) % math.pi
    if inc >= math.pi:
        inc -= math.pi
    return base + inc + m * math.pi


@dataclass(frozen=True)
class CoverElement:
    """Element of the lifted projective group: T^deck composed with the
    normalized lift of an SL(2, R) matrix, acting on the line."""

    matrix: tuple[tuple[float, float], tuple[float, float]]
    deck: int

    @staticmethod
    def of(a: np.ndarray, deck: int = 0) -> "CoverElement":
        if a.shape != (2, 2):
            raise ValueError("matrix must be 2x2")
        det = float(np.linalg.det(a))
        if abs(det - 1.0) > 1e-9:
            raise ValueError(f"matrix must have determinant 1, got {det}")
        return CoverElement(((float(a[0, 0]), float(a[0, 1])), (float(a[1, 0]), float(a[1, 1]))), deck)

    def as_array(self) -> np.ndarray:
        return np.array(self.matrix, dtype=float)


def cover_identity() -> CoverElement:
    return CoverElement(((1.0, 0.0), (0.0, 1.0)), 0)


def cover_eval(a: CoverElement, theta: float) -> float:
    return _lift_eval(a.as_array(), theta) + a.deck * math.pi


def cover_compose(a: CoverElement, b: CoverElement) -> CoverElement:
    """(A, k)(B, m) = (AB, k + m + delta) where delta in {-1, 0, 1}
    corrects the normalization of the composed lift."""
    ab = a.as_array() @ b.as_array()
    delta = round((_lift_eval(a.as_array(), _lift_eval(b.as_array(), 0.0)) - _lift_eval(ab, 0.0)) / math.pi)
    return CoverElement.of(ab, a.deck + b.deck + int(delta))


def cover_inverse(a: CoverElement) -> CoverElement:
    arr = a.as_array()
    inv = np.array([[arr[1, 1], -arr[0, 1]], [-arr[1, 0], arr[0, 0]]])
    raw = CoverElement.of(inv, -a.deck)
    # pick the deck index that makes a . raw the identity map of the line
    # (its own deck index depends on the base-angle normalization)
    comp = cover_compose(a, raw)
    shift = round(cover_eval(comp, 0.0) / math.pi)
    return CoverElement(raw.matrix, raw.deck - int(shift))


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
