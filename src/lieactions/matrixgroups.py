"""Matrix models of the groups that act: samplers, generators and products.

Group tags:
  "ST"  upper triangular, positive diagonal, determinant 1
  "U"   unitriangular (upper triangular, unit diagonal)

An element of ST(n) or U(n) is a flat row-major tuple of n^2 Python floats,
+0.0 below the diagonal. Sampling and products are straight-line code
compiled once per n by `constants.compile_function`, the package's one
compiler of generated code, and every sum runs left to right, so a result
depends on its inputs alone.
"""

from __future__ import annotations

from functools import cache

from .constants import compile_function

__all__ = [
    "identity",
    "random_element",
    "generators",
    "triangular_product",
]


def identity(n: int) -> tuple[float, ...]:
    return tuple(1.0 if i == j else 0.0 for i in range(n) for j in range(n))


def uniform_count(group: str, n: int) -> int:
    """The uniforms that one element of ST(n) or U(n) is made from."""
    if group not in ("ST", "U"):
        raise ValueError(f"unknown group tag {group!r}")
    return n * (n - 1) // 2 + (n if group == "ST" else 0)


def random_element(rng, group: str, n: int) -> tuple[float, ...]:
    """Random ST(n) or U(n) from one `rng.random` call (`rng` a
    `pcg64.DefaultRNG`): for ST, first the diagonal in [0.5, 2] renormalized
    to determinant one (U has a unit diagonal); then the strict uppers in
    [-2, 2], in row-major order."""
    return element_maker(group, n)(rng.random(uniform_count(group, n)))


@cache
def element_maker(group: str, n: int):
    """make(u): the element of ST(n) or U(n) of its `uniform_count` uniforms
    u, each scaled as low + (high - low) u. For ST the diagonal d is divided
    by (d_0 d_1 ... d_(n-1)) ** (1 / n), the product taken left to right."""
    diagonal = n if group == "ST" else 0
    count = uniform_count(group, n)
    names = [f"u{k}" for k in range(count)]
    uppers = iter(f"-2.0 + 4.0 * {u}" for u in names[diagonal:])
    lines = ["def make(u):"]
    if count:
        lines.append(f"    {', '.join(names)}, = u")
    if diagonal:
        lines += [f"    d{i} = 0.5 + 1.5 * u{i}" for i in range(n)]
        lines.append(f"    root = ({' * '.join(f'd{i}' for i in range(n))}) ** {1.0 / n!r}")
    entries = [
        "0.0" if j < i else (f"d{i} / root" if diagonal else "1.0") if j == i else next(uppers)
        for i in range(n) for j in range(n)
    ]
    lines.append(f"    return ({', '.join(entries)},)")
    return compile_function(lines, "make", f"<{group}({n}) element>")


@cache
def triangular_product(n: int):
    """mul(g, h): the product of two upper-triangular n x n matrices, flat
    row-major tuples; (gh)_ij = g_ii h_ij + g_i,i+1 h_i+1,j + ... + g_ij h_jj
    for j >= i, summed left to right, and +0.0 below the diagonal."""
    entries = [
        "0.0" if j < i else " + ".join(f"g{i}_{k} * h{k}_{j}" for k in range(i, j + 1))
        for i in range(n) for j in range(n)
    ]
    lines = ["def mul(g, h):", f"    {unpack('g', n)} = g", f"    {unpack('h', n)} = h",
             f"    return ({', '.join(entries)},)"]
    return compile_function(lines, "mul", f"<triangular product {n}>")


def unpack(name: str, n: int) -> str:
    """The targets that unpack a flat n x n matrix into name{i}_{j}, the
    entries below the diagonal into `_`."""
    return ", ".join(f"{name}{i}_{j}" if j >= i else "_" for i in range(n) for j in range(n)) + ","


def generators(group: str, n: int) -> list[tuple[str, tuple[float, ...]]]:
    """Named generators of ST(n) or U(n), flat row-major tuples: for ST, one
    diagonal generator per pair of neighbouring basis directions; then one
    shear per entry above the diagonal."""
    if group not in ("ST", "U"):
        raise ValueError(f"unknown group tag {group!r}")
    gens = []
    for i in range(n - 1 if group == "ST" else 0):
        g = list(identity(n))
        g[i * n + i] = 2.0
        g[(i + 1) * n + i + 1] = 0.5
        gens.append((f"diag{i + 1}", tuple(g)))
    for i in range(n):
        for j in range(i + 1, n):
            g = list(identity(n))
            g[i * n + j] = 1.0
            gens.append((f"shear{i + 1}{j + 1}", tuple(g)))
    return gens
