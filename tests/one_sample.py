"""The one-sample forms of the action code that now draws, composes and
acts a block at a time, kept as the oracles of the block forms.

`random_sl2`, `as_array`, `cover_compose_one`, `disk_action` and the
samplers of the interval and disk kinds are the program's code before it
drew and evaluated those kinds in blocks; `OneAtATimeSampler` and `looped`
serve any hand-written element and point draws of a test.
"""

import math
from collections import namedtuple

import numpy as np

from lieactions.actions import CoverElement, _cover_element, _lift_eval, interval_action


class OneAtATimeSampler(namedtuple("OneAtATimeSampler", "sample_element sample_point")):
    """A sampler of `verify_action` that draws each group element and each
    point with its own calls, sample_element(rng) and sample_point(rng)."""

    def points(self, rng, samples: int) -> np.ndarray:
        """`samples` points drawn one at a time, as the rows of one float array."""
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


def looped(act):
    """The block evaluator of a one-sample action act(element, point)."""
    return lambda elements, points: np.array([act(g, y) for g, y in zip(elements, points)])


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


def disk_action(a: CoverElement, y: np.ndarray) -> np.ndarray:
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
    return CoverElement.of(random_sl2(rng), int(rng.integers(-1, 2)))


def cover_sampler(disk: bool, n: int) -> OneAtATimeSampler:
    """The one-sample sampler of the interval kind, or of the disk kind in R^n."""
    if disk:
        def sample_point(r):
            v = r.normal(size=n)
            return v / math.sqrt(v.dot(v)) * r.uniform(0.0, 1.0)
    else:
        def sample_point(r):
            return np.array([r.uniform(0.01, 0.99)])
    return OneAtATimeSampler(sample_cover_element, sample_point)
