"""Matrix models of the groups that act: samplers and generators.

Group tags:
  "ST"  upper triangular, positive diagonal, determinant 1
  "U"   unitriangular (upper triangular, unit diagonal)
  "SL2" 2x2 of determinant 1
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "random_element",
    "generators",
]

@lru_cache(maxsize=None)
def _strict_upper(n: int) -> np.ndarray:
    """Flat indices of the strictly upper entries of an n x n matrix, row-major."""
    rows, cols = np.triu_indices(n, 1)
    flat = rows * n + cols
    flat.flags.writeable = False  # shared by every caller
    return flat


def random_sl2(rng: np.random.Generator) -> np.ndarray:
    while True:
        a = rng.uniform(-1.5, 1.5, size=(2, 2))
        det = np.linalg.det(a)
        if det > 0.05:
            return a / np.sqrt(det)


def random_element(rng: np.random.Generator, group: str, n: int) -> np.ndarray:
    """Random ST(n) or U(n): for ST, first the diagonal in [0.5, 2]
    renormalized to determinant one (U has a unit diagonal); then the
    strict uppers in [-2, 2], in row-major order."""
    g = np.zeros(n * n)
    if group == "ST":
        diag = rng.uniform(0.5, 2.0, size=n)
        g[:: n + 1] = diag / diag.prod() ** (1.0 / n)
    elif group == "U":
        g[:: n + 1] = 1.0
    else:
        raise ValueError(f"unknown group tag {group!r}")
    upper = _strict_upper(n)
    g[upper] = rng.uniform(-2.0, 2.0, size=len(upper))
    return g.reshape(n, n)


def st_generators(n: int) -> list[tuple[str, np.ndarray]]:
    """One diagonal and one shear generator per basis direction."""
    gens = []
    for i in range(n - 1):
        g = np.eye(n)
        g[i, i] = 2.0
        g[i + 1, i + 1] = 0.5
        gens.append((f"diag{i + 1}", g))
    return gens + unitriangular_generators(n)


def unitriangular_generators(n: int) -> list[tuple[str, np.ndarray]]:
    gens = []
    for i in range(n):
        for j in range(i + 1, n):
            g = np.eye(n)
            g[i, j] = 1.0
            gens.append((f"shear{i + 1}{j + 1}", g))
    return gens


def generators(group: str, n: int) -> list[tuple[str, np.ndarray]]:
    if group == "ST":
        return st_generators(n)
    if group == "U":
        return unitriangular_generators(n)
    if group == "SL2":
        return [
            ("diag", np.array([[2.0, 0.0], [0.0, 0.5]])),
            ("shear", np.array([[1.0, 1.0], [0.0, 1.0]])),
            ("rot", np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])),
        ]
    raise ValueError(f"unknown group tag {group!r}")
