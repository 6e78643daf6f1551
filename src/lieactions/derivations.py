"""Derivation algebras and the nilpotent-derivations obstruction.

A derivation is a matrix D with D[x,y] = [Dx,y] + [x,Dy]. The basis of
all derivations is the kernel of one exact linear system. When every
element of that span is nilpotent, no contraction of the algebra onto
the trivial one can exist; the certificate is a flag of subspaces on
which the whole span acts strictly triangularly.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, defaultdict, namedtuple
from fractions import Fraction
from math import gcd, lcm
from operator import mul, sub

from .algebra import LieAlgebra
from .linalg import (RatMatrix, Subspace, _backward, _dense, _echelon, _insert, _kernel, _kernel_vectors,
                     _primitive, _row_times)

__all__ = [
    "DerivationAlgebra",
    "derivation_algebra",
    "engel_flag",
    "find_non_nilpotent",
    "ContractionObstruction",
    "contractibility_obstruction",
]


class DerivationAlgebra(namedtuple("DerivationAlgebra", "parent basis")):
    """Der(parent), with `basis` a tuple of matrices in canonical RREF order."""

    @property
    def dim(self) -> int:
        return len(self.basis)


# A block of rows that adds no rank switches to the kernel check only when
# the pivot rows average more than this many nonzeros: on sparse systems
# elimination is cheap, and taking the kernel would cost more than it saves
# (without this gate the catalog's sparse size ladder took twice as long).
_DENSE_PIVOT_ROW = 4


def _blocks(g: LieAlgebra):
    """The rows of D[e_i, e_j] = [De_i, e_j] + [e_i, De_j], one list per
    pair i < j, as primitive integer rows {a*n + b: coefficient of D[a][b]}
    (the constants scaled to integers, which scales every row alike)."""
    n = g.dim
    table = g.integer_table[1]
    # ad[j]: (a, [(k, c), ...]) for every nonzero [e_a, e_j] = sum_k c e_k
    ad: list[list] = [[] for _ in range(n)]
    for (i, j), coeffs in table.items():
        ad[j].append((i, coeffs))
        ad[i].append((j, [(k, -c) for k, c in coeffs]))
    for i in range(n):
        for j in range(i + 1, n):
            # row k: the e_k-component of D[e_i, e_j] - [De_i, e_j] - [e_i, De_j]
            eq: defaultdict[int, Counter] = defaultdict(Counter)
            for a, c in table.get((i, j), ()):
                for k in range(n):
                    eq[k][k * n + a] += c
            for a, coeffs in ad[j]:
                for k, c in coeffs:
                    eq[k][a * n + i] -= c
            for a, coeffs in ad[i]:  # [e_i, e_a] = -[e_a, e_i]
                for k, c in coeffs:
                    eq[k][a * n + j] += c
            rows = ({col: v for col, v in row.items() if v} for row in eq.values())
            yield [_primitive(row) for row in rows if row]


def derivation_algebra(g: LieAlgebra) -> DerivationAlgebra:
    """Der(g): the kernel of the system `_blocks`, in canonical RREF.

    g must satisfy the Jacobi identity (`algebra analyze` checks it first):
    then every prefix of the rows has a kernel that contains Der(g), and
    Der(g) contains ad(g), of dimension n - dim center. The rows are
    eliminated in order until one of two things happens:

    1. the rank reaches n^2 - dim ad(g): the prefix kernel is ad(g), and no
       later row can change it;
    2. a whole block adds no rank while the echelon is dense: the prefix
       kernel K is taken once, as integer vectors, and each later row is
       checked against it by exact dot products. A row that is not zero on
       K cuts K by one dimension, and the walk ends once dim K = dim ad(g).

    Either way the result is the kernel of the whole system, so its RREF
    is the one full elimination gives.
    """
    n = g.dim
    inner = n - g.center_space.dim
    bound = n * n - inner
    echelon: dict[int, dict[int, int]] = {}
    nonzeros = 0
    blocks = _blocks(g)
    for block in blocks:
        grew = False
        for row in block:
            prow = _insert(echelon, row)
            if prow:
                if len(echelon) == bound:
                    # the span of the ad e_i, entry (k, j) of each at k*n + j
                    ads = [
                        {k * n + j: c for j in range(n) for k, c in g._bracket({i: 1}, {j: 1}).items()}
                        for i in range(n)
                    ]
                    return _from_kernel(g, Subspace.span(ads, n * n))
                grew = True
                nonzeros += len(prow)
        if not grew and nonzeros > _DENSE_PIVOT_ROW * len(echelon):
            kernel = _cut(_integer_kernel(echelon, n * n), blocks, inner)
            return _from_kernel(g, Subspace.span(kernel, n * n))
    return _from_kernel(g, _kernel(echelon, n * n))


def _from_kernel(g: LieAlgebra, space: Subspace) -> DerivationAlgebra:
    n = g.dim
    return DerivationAlgebra(g, tuple(RatMatrix.from_flat(n, n, vec) for vec in space.basis_vectors()))


def _integer_kernel(echelon: dict[int, dict[int, int]], ncols: int) -> list[list[int]]:
    """A basis of the kernel of the echelon rows as dense integer vectors:
    the free-column vectors of their RREF, each scaled by the lcm of its
    denominators (not canonical; `_cut`'s result is reduced afterwards).
    The rows are already an echelon, so only the backward pass runs, on a
    copy."""
    vectors = []
    for vec in _kernel_vectors(_backward(dict(echelon)), ncols):
        den = lcm(*(x.denominator for x in vec.values()))
        dense = [0] * ncols
        for j, x in vec.items():
            dense[j] = x.numerator * (den // x.denominator)
        vectors.append(dense)
    return vectors


def _cut(kernel: list[list[int]], blocks, target: int) -> list[list[int]]:
    """The vectors of `kernel` on which every remaining row vanishes.

    A row is skipped when its integer dot product with every kernel vector
    is zero. Otherwise the vector v_p with the smallest nonzero product d_p
    is dropped and every v with d != 0 becomes d_p v - d v_p, divided by its
    content: the kernel loses exactly one dimension."""
    for block in blocks:
        for row in block:
            cols, vals = list(row), list(row.values())
            dots = [sum(map(mul, vals, map(v.__getitem__, cols))) for v in kernel]
            if not any(dots):
                continue
            p = min((t for t, d in enumerate(dots) if d), key=lambda t: abs(dots[t]))
            dp, vp = dots[p], kernel[p]
            cut = []
            for t, (v, d) in enumerate(zip(kernel, dots)):
                if t == p:
                    continue
                if d:
                    v = list(map(sub, map(dp.__mul__, v), map(d.__mul__, vp)))
                    c = gcd(*v)
                    if c > 1:
                        v = [x // c for x in v]
                cut.append(v)
            kernel = cut
            if len(kernel) == target:
                return kernel
    return kernel


def _integer_basis(mats) -> tuple[list[list[dict[int, int]]], int]:
    """(the rows of d * m as sparse integer rows {col: value}, for each m; d)
    for the lcm d of every denominator in mats. Scaling by d > 0 changes
    neither the nilpotency of a combination nor a preimage."""
    nonzero = [[[(j, x) for j, x in enumerate(m.row(i)) if x] for i in range(m.rows)] for m in mats]
    den = lcm(*(x.denominator for rows in nonzero for row in rows for _, x in row))
    return [[{j: x.numerator * (den // x.denominator) for j, x in row} for row in rows] for rows in nonzero], den


def engel_flag(
    mats: list[RatMatrix] | tuple[RatMatrix, ...], ambient_dim: int, scaled: tuple | None = None
) -> list[Subspace] | None:
    """Flag 0 < W_1 < ... < W_r = Q^n with D(W_{k+1}) <= W_k for all D.

    W_{k+1} is the preimage of W_k under every matrix at once; the chain
    either climbs to the full space (the span acts nilpotently, flag
    returned) or stalls strictly below it (None). W_k is the kernel of
    integer rows A, so W_{k+1} is the kernel of the rows a m for a in A,
    and their echelon is the next A. `scaled` is `_integer_basis(mats)`
    when the caller already has it.
    """
    for m in mats:
        if m.rows != m.cols or m.rows != ambient_dim:
            raise ValueError("matrices must be square of the ambient dimension")
    if ambient_dim == 0:
        return [Subspace.zero(0)]
    rows, _ = _integer_basis(mats) if scaled is None else scaled
    annihilator = [{k: 1} for k in range(ambient_dim)]  # W_0 = 0
    flag: list[Subspace] = []
    while annihilator:
        echelon = _echelon(_primitive(_row_times(a, m)) for a in annihilator for m in rows)
        if len(echelon) == len(annihilator):
            return None
        flag.append(_kernel(echelon, ambient_dim))
        annihilator = list(echelon.values())
    return flag


def _is_nilpotent_matrix(rows: list[dict[int, int]]) -> bool:
    """Whether the square matrix with these sparse integer rows is
    nilpotent: M^n = 0 for n = len(rows), tested on the powers M^(2^j),
    since M^k = 0 for some k >= n exactly when M^n = 0."""
    power, k = rows, 1
    while any(power):
        if k >= len(rows):
            return False
        power = [_row_times(row, power) for row in power]
        k *= 2
    return True


def _combination(coeffs: dict[int, int], rows: list[list[dict[int, int]]]) -> list[dict[int, int]]:
    """sum c * rows[t] over coeffs {t: c}, as sparse integer rows."""
    out: list[dict[int, int]] = [{} for _ in rows[0]]
    for t, c in coeffs.items():
        for acc, row in zip(out, rows[t]):
            for j, x in row.items():
                acc[j] = acc.get(j, 0) + c * x
    return [{j: v for j, v in acc.items() if v} for acc in out]


def find_non_nilpotent(
    mats: list[RatMatrix], seed: int = 0, tries: int = 200, scaled: tuple | None = None
) -> RatMatrix | None:
    """A non-nilpotent element of the span: basis elements first, then
    pair sums, then seeded small integer combinations. `scaled` is
    `_integer_basis(mats)` when the caller already has it."""
    if not mats:
        return None
    rows, den = _integer_basis(mats) if scaled is None else scaled
    for m, r in zip(mats, rows):
        if not _is_nilpotent_matrix(r):
            return m
    rng = random.Random(seed)
    pairs = ({a: 1, b: 1} for a, b in itertools.combinations(range(len(mats)), 2))
    seeded = ({t: c for t in range(len(mats)) if (c := rng.randint(-3, 3))} for _ in range(tries))
    for coeffs in itertools.chain(pairs, seeded):
        combo = _combination(coeffs, rows)
        if not _is_nilpotent_matrix(combo):
            n = len(combo)
            return RatMatrix([_dense({j: Fraction(v, den) for j, v in row.items()}, n) for row in combo])
    return None


class ContractionObstruction(
    namedtuple("ContractionObstruction", "algebra status derivation_dim flag witness")
):
    """Verdict on whether nilpotent derivations rule out contracting g.

    status is "obstructed" (every derivation nilpotent; flag, a tuple of
    Subspaces, certifies) or "inconclusive" (flag is None, and witness is
    a non-nilpotent derivation when one was found, else None).
    """


def contractibility_obstruction(g: LieAlgebra) -> ContractionObstruction:
    der = g.derivation_algebra
    mats = list(der.basis)
    scaled = _integer_basis(mats)  # both searches read the same integer rows
    flag = engel_flag(mats, g.dim, scaled)
    if flag is not None:
        return ContractionObstruction(g.name, "obstructed", der.dim, tuple(flag), None)
    witness = find_non_nilpotent(mats, scaled=scaled)
    return ContractionObstruction(g.name, "inconclusive", der.dim, None, witness)
