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
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property

from .algebra import LieAlgebra
from .linalg import RatMatrix, Subspace, nullspace_of_rows

__all__ = [
    "DerivationAlgebra",
    "derivation_algebra",
    "inner_derivations",
    "is_nil_family",
    "engel_flag",
    "find_non_nilpotent",
    "ContractionObstruction",
    "contractibility_obstruction",
]


@dataclass(frozen=True)
class DerivationAlgebra:
    parent: LieAlgebra
    basis: tuple[RatMatrix, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def span(self) -> Subspace:
        """The derivation span as a subspace of Q^(n^2), factored once."""
        return Subspace.span([m.flat() for m in self.basis], self.parent.dim ** 2)

    def contains(self, mat: RatMatrix) -> bool:
        """Exact membership of a matrix in the derivation span."""
        return self.span.contains(mat.flat())

    def commutator_closed(self) -> bool:
        for a, b in itertools.combinations(self.basis, 2):
            if not self.contains(a.commutator(b)):
                return False
        return True


def derivation_algebra(g: LieAlgebra) -> DerivationAlgebra:
    """Solve D[e_i, e_j] = [De_i, e_j] + [e_i, De_j] over the n^2 entries."""
    n = g.dim
    # ad[j]: (a, [(k, c), ...]) for every nonzero [e_a, e_j] = sum_k c e_k
    ad: list[list] = [[] for _ in range(n)]
    for (i, j), coeffs in g.sparse_table.items():
        ad[j].append((i, coeffs))
        ad[i].append((j, [(k, -c) for k, c in coeffs]))
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            # row k: the e_k-component of D[e_i, e_j] - [De_i, e_j] - [e_i, De_j]
            # as sparse coefficients of the unknowns D[a][b], stored at a*n + b
            eq: defaultdict[int, Counter] = defaultdict(Counter)
            for a, c in g.sparse_table.get((i, j), ()):
                for k in range(n):
                    eq[k][k * n + a] += c
            for a, coeffs in ad[j]:
                for k, c in coeffs:
                    eq[k][a * n + i] -= c
            for a, coeffs in ad[i]:  # [e_i, e_a] = -[e_a, e_i]
                for k, c in coeffs:
                    eq[k][a * n + j] += c
            rows.extend(eq.values())
    kernel = nullspace_of_rows(rows, n * n)
    basis = tuple(
        RatMatrix.from_flat(n, n, vec) for vec in kernel.basis_vectors()
    )
    return DerivationAlgebra(g, basis)


def inner_derivations(g: LieAlgebra) -> list[RatMatrix]:
    """The ad matrices of the basis vectors."""
    return [g.ad_matrix(g.basis_vector(i)) for i in range(g.dim)]


def engel_flag(mats: list[RatMatrix] | tuple[RatMatrix, ...], ambient_dim: int) -> list[Subspace] | None:
    """Flag 0 < W_1 < ... < W_r = Q^n with D(W_{k+1}) <= W_k for all D.

    W_{k+1} is the preimage of W_k under every matrix at once; the chain
    either climbs to the full space (the span acts nilpotently, flag
    returned) or stalls strictly below it (None).
    """
    for m in mats:
        if m.rows != m.cols or m.rows != ambient_dim:
            raise ValueError("matrices must be square of the ambient dimension")
    if ambient_dim == 0:
        return [Subspace.zero(0)]
    current = Subspace.zero(ambient_dim)
    flag: list[Subspace] = []
    while current.dim < ambient_dim:
        annihilator = current.annihilator_matrix()
        constraint_rows = []
        for m in mats:
            prod = annihilator @ m
            constraint_rows.extend(prod.to_lists())
        nxt = nullspace_of_rows(constraint_rows, ambient_dim)
        if nxt.dim <= current.dim:
            return None
        flag.append(nxt)
        current = nxt
    return flag


def is_nil_family(mats, ambient_dim: int) -> bool:
    """True iff every element of the linear span of mats is nilpotent."""
    return engel_flag(list(mats), ambient_dim) is not None


def _is_nilpotent_matrix(m: RatMatrix) -> bool:
    power = m
    for _ in range(m.rows):
        if power.is_zero():
            return True
        power = power @ m
    return power.is_zero()


def find_non_nilpotent(mats: list[RatMatrix], seed: int = 0, tries: int = 200) -> RatMatrix | None:
    """A non-nilpotent element of the span: basis elements first, then
    pair sums, then seeded small rational combinations."""
    if not mats:
        return None
    for m in mats:
        if not _is_nilpotent_matrix(m):
            return m
    for a, b in itertools.combinations(mats, 2):
        s = a + b
        if not _is_nilpotent_matrix(s):
            return s
    rng = random.Random(seed)
    n = mats[0].rows
    for _ in range(tries):
        combo = RatMatrix.zeros(n, n)
        for m in mats:
            c = rng.randint(-3, 3)
            if c:
                combo = combo + m.scale(c)
        if not _is_nilpotent_matrix(combo):
            return combo
    return None


@dataclass(frozen=True)
class ContractionObstruction:
    """Verdict on whether nilpotent derivations rule out contracting g.

    status is "obstructed" (every derivation nilpotent; flag certifies)
    or "inconclusive" (witness is a non-nilpotent derivation, when one
    was found).
    """

    algebra: str
    status: str
    derivation_dim: int
    flag: tuple[Subspace, ...] | None
    witness: RatMatrix | None

    @property
    def obstructed(self) -> bool:
        return self.status == "obstructed"


def contractibility_obstruction(g: LieAlgebra) -> ContractionObstruction:
    der = g.derivation_algebra
    flag = engel_flag(list(der.basis), g.dim)
    if flag is not None:
        return ContractionObstruction(g.name, "obstructed", der.dim, tuple(flag), None)
    witness = find_non_nilpotent(list(der.basis))
    return ContractionObstruction(g.name, "inconclusive", der.dim, None, witness)
