"""Lie algebras presented by exact rational structure constants.

A LieAlgebra stores brackets of basis pairs (i, j) with i < j only;
antisymmetry is synthesized, which removes one whole class of
inconsistent-input bugs. All series, centers and predicates are exact
certificates computed over Q.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from math import lcm

from .constants import MAX_CATALOG_DIM, compile_function
from .linalg import PairRows, Subspace, _integer, _row_times, nullspace_of_rows, sparse_rref
from .serialize import REQUIRED, FormatError, _quoted, format_rational, parse_rational, read_object

__all__ = [
    "LieAlgebra",
    "SeriesReport",
    "AlgebraPredicates",
    "direct_sum",
    "to_json_dict",
    "from_json_dict",
]


class LieAlgebra(namedtuple("LieAlgebra", "name dim basis_names table")):
    """Finite-dimensional Lie algebra over Q given by structure constants.

    `table` holds ((i, j), ((k, c), ...)) for i < j: the nonzero constants
    c of [e_i, e_j] = sum_k c e_k, with pairs and k ascending and zero
    brackets omitted. It is the one form of the structure constants; every
    other view is derived from it. The fields are read-only; equality and
    hash are those of the tuple of fields.
    """

    @staticmethod
    def create(
        name: str,
        basis_names: Sequence[str],
        brackets: Mapping[tuple[int, int], Mapping[int, object]],
    ) -> "LieAlgebra":
        """Build from 0-based sparse bracket data {(i, j): {k: c}} with i < j.

        The Jacobi identity is not checked here: each verb that reads an
        algebra runs `jacobi_check` once.
        """
        dim = len(basis_names)
        entries = []
        for (i, j), val in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket pair {(i, j)} must satisfy 0 <= i < j < dim")
            coeffs = []
            for k, c in val.items():
                if not 0 <= k < dim:
                    raise ValueError(f"bracket target index {k} out of range")
                c = Fraction(c)
                if c:
                    coeffs.append((k, c))
            if coeffs:
                entries.append(((i, j), tuple(sorted(coeffs))))
        entries.sort()
        return LieAlgebra(name, dim, tuple(basis_names), tuple(entries))

    @staticmethod
    def from_matrix_basis(
        name: str, basis_names: Sequence[str], mats: Sequence[PairRows]
    ) -> "LieAlgebra":
        """Structure constants of a linearly independent family of square
        matrices closed under commutator."""
        dim = len(mats)
        if dim == 0:
            return LieAlgebra.create(name, [], {})
        size = len(mats[0])
        width = size * size
        sparse = [[dict(row) for row in m] for m in mats]
        # factor once: the RREF of [flat | I] is [R | E] with R = E @ flat, so
        # v = sum_t v[pivot t] R_t gives the coordinates sum_t v[pivot t] E_t
        reduced = sparse_rref(
            {**{r * size + c: x for r, row in enumerate(m) for c, x in row.items()}, width + t: 1}
            for t, m in enumerate(sparse)
        )
        if reduced[-1][0] >= width:
            raise ValueError("matrix basis is linearly dependent")
        pivots = dict(reduced)
        brackets = {}
        for i in range(dim):
            for j in range(i + 1, dim):
                # M_i M_j - M_j M_i, flattened, as sparse products
                rest: dict[int, Fraction] = {}
                for sign, a, b in ((1, sparse[i], sparse[j]), (-1, sparse[j], sparse[i])):
                    for r, row in enumerate(a):
                        for c, v in _row_times(row, b).items():
                            rest[r * size + c] = rest.get(r * size + c, 0) + sign * v
                # an RREF row is zero on every other pivot, so each pivot's
                # coefficient is read off before any row is subtracted
                coords: dict[int, Fraction] = {}
                for pivot, d in list(rest.items()):
                    if d and pivot in pivots:
                        for col, v in pivots[pivot].items():
                            if col < width:
                                rest[col] = rest.get(col, 0) - d * v
                            else:
                                coords[col - width] = coords.get(col - width, 0) + d * v
                if any(rest.values()):
                    raise ValueError(
                        f"commutator [{basis_names[i]}, {basis_names[j]}] leaves the span"
                    )
                brackets[(i, j)] = coords
        return LieAlgebra.create(name, basis_names, brackets)

    # -- bracket ------------------------------------------------------

    def _bracket(self, x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
        """den * [x, y] for sparse integer vectors {i: x_i}, summed in
        integers over `integer_table` (whose scale is den); zeros dropped."""
        table = self.integer_table[1]
        out: dict[int, int] = {}
        for i, xi in x.items():
            for j, yj in y.items():
                if i < j:
                    vec, s = table.get((i, j)), xi * yj
                elif i > j:
                    vec, s = table.get((j, i)), -xi * yj
                else:
                    continue
                if vec is not None:
                    for k, c in vec:
                        out[k] = out.get(k, 0) + s * c
        return {k: v for k, v in out.items() if v}

    @cached_property
    def integer_table(self) -> tuple[int, dict[tuple[int, int], list[tuple[int, int]]]]:
        """(den, {(i, j): [(k, den * c), ...]}): `table` with every constant
        scaled to an integer by the lcm den of their denominators."""
        den = lcm(*(c.denominator for _, coeffs in self.table for _, c in coeffs))
        return den, {
            pair: [(k, c.numerator * (den // c.denominator)) for k, c in coeffs]
            for pair, coeffs in self.table
        }

    @cached_property
    def float_table(self) -> tuple[tuple[int, int, tuple[tuple[int, float], ...]], ...]:
        """`table` as floats, in table order: (i, j, ((k, c), ...))."""
        return tuple(
            (i, j, tuple((k, float(c)) for k, c in coeffs))
            for (i, j), coeffs in self.table
        )

    def bracket_numeric(self, x: Sequence[float], y: Sequence[float]) -> list[float]:
        """Float bracket for the numerical verification paths: for each pair
        (i, j) of `float_table` in order, s = x_i y_j - x_j y_i and, when s
        is nonzero, out[k] += s * c for each of its constants, each out[k]
        summed from 0.0. x and y have length dim."""
        return self._float_kernel(x, y)

    @cached_property
    def _float_kernel(self):
        """`bracket_numeric` compiled once per algebra (`_compile_bracket`)."""
        return _compile_bracket(self.dim, self.float_table, 0.0, f"<float bracket {self.name}>")

    @cached_property
    def _integer_kernel(self):
        """den * [x, y] for dense integer vectors x and y of length dim, as a
        dense list of integers: `_bracket` over `integer_table`, compiled once
        per algebra (`_compile_bracket`)."""
        rows = [(i, j, coeffs) for (i, j), coeffs in self.integer_table[1].items()]
        return _compile_bracket(self.dim, rows, 0, f"<integer bracket {self.name}>")

    # -- validation ---------------------------------------------------

    def jacobi_check(self) -> list[tuple[int, int, int]]:
        """All 0-based basis triples violating the Jacobi identity.

        Adds each nonzero term [[e_p, e_q], e_r] into its sorted triple, with
        the constants scaled to integers (which scales every sum alike).
        """
        sparse = self.integer_table[1].items()
        # nonzero brackets [e_a, e_r] = sign * sum_k c e_k, listed by a
        ad: list[list] = [[] for _ in range(self.dim)]
        for (i, j), coeffs in sparse:
            ad[i].append((j, coeffs, 1))
            ad[j].append((i, coeffs, -1))
        totals: dict[tuple[int, int, int], dict[int, int]] = {}
        for (p, q), coeffs in sparse:
            for a, c in coeffs:
                for r, inner, sign in ad[a]:
                    if r == p or r == q:
                        continue
                    # in the sorted triple the term enters as -[[e_p, e_q], e_r] when p < r < q
                    s = -sign * c if p < r < q else sign * c
                    acc = totals.setdefault(tuple(sorted((p, q, r))), {})
                    for k, d in inner:
                        acc[k] = acc.get(k, 0) + s * d
        return sorted(t for t, acc in totals.items() if any(acc.values()))

    # -- subspace machinery --------------------------------------------

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim)

    def subspace_bracket(self, u: Subspace, v: Subspace) -> Subspace:
        """Span of brackets of basis pairs; equals [span u, span v]. Each
        basis row is read once, as a sparse integer vector; when u = v, each
        unordered pair is bracketed once."""
        if u.ambient_dim != self.dim or v.ambient_dim != self.dim:
            raise ValueError("ambient dimension != algebra dimension")
        xs = [_integer(row)[0] for row in u.basis_vectors()]
        if u == v:
            pairs = itertools.combinations(xs, 2)
        else:
            pairs = itertools.product(xs, [_integer(row)[0] for row in v.basis_vectors()])
        return Subspace.span([self._bracket(x, y) for x, y in pairs], self.dim)

    # -- series and invariants -----------------------------------------

    def derived_series_of(self, start: Subspace) -> "SeriesReport":
        return self._series("derived", start, lambda cur: self.subspace_bracket(cur, cur))

    def lower_central_series_of(self, start: Subspace) -> "SeriesReport":
        return self._series(
            "lower_central", start, lambda cur: self.subspace_bracket(start, cur)
        )

    def _series(self, kind: str, start: Subspace, step) -> "SeriesReport":
        terms = [start]
        while True:
            cur = terms[-1]
            if cur.dim == 0:
                return SeriesReport(kind, tuple(terms), True, len(terms) - 1)
            nxt = step(cur)
            if nxt == cur:
                return SeriesReport(kind, tuple(terms), True, None)
            terms.append(nxt)

    def derived_series(self) -> "SeriesReport":
        """Computes the series afresh; `derived` holds it once per algebra."""
        return self.derived_series_of(self.full_space())

    def lower_central_series(self) -> "SeriesReport":
        """Computes the series afresh; `lower_central` holds it once per algebra."""
        return self.lower_central_series_of(self.full_space())

    # The algebra is frozen, so each invariant is computed at most once per
    # instance (cached_property stores it in the instance __dict__). They
    # call the methods above through the class, so wrappers around those
    # methods still see every computation.
    derived = cached_property(lambda self: self.derived_series())
    lower_central = cached_property(lambda self: self.lower_central_series())
    center_space = cached_property(lambda self: self.center())

    @cached_property
    def derivation_algebra(self):
        """The DerivationAlgebra of this algebra."""
        from .derivations import derivation_algebra

        return derivation_algebra(self)

    def derived_length(self) -> int | None:
        """Smallest l with the l-th derived term zero; None when infinite."""
        return self.derived.length

    def nilpotency_class(self) -> int | None:
        return self.lower_central.length

    def center(self) -> Subspace:
        """{x : [x, e_j] = 0 for all j}, computed afresh as one kernel;
        `center_space` holds it once per algebra."""
        rows: dict[tuple[int, int], dict[int, int]] = {}  # (j, k) -> {i: den * c_ij^k}
        for (i, j), coeffs in self.integer_table[1].items():
            for k, c in coeffs:
                rows.setdefault((j, k), {})[i] = c
                rows.setdefault((i, k), {})[j] = -c
        return nullspace_of_rows(rows.values(), self.dim)

    def predicates(self) -> "AlgebraPredicates":
        return AlgebraPredicates(
            is_solvable=self.derived_length() is not None,
            is_nilpotent=self.nilpotency_class() is not None,
        )


def _compile_bracket(dim: int, table, zero, filename: str):
    """bracket(x, y) over `table`, rows (i, j, ((k, c), ...)) in table order,
    as straight-line code: for each row s = x_i y_j - x_j y_i and, when s is
    nonzero, o_k += s * c for each of its constants, each o_k summed from
    `zero`; it returns [o_0, ..., o_{dim-1}]. x and y are unpacked into one
    local per coordinate, so they must have length dim, and each constant
    is written with `repr`, which reads back as the same number."""
    body, targets = [], set()
    for i, j, coeffs in table:
        body += [f"    s = x{i} * y{j} - x{j} * y{i}", "    if s:"]
        body += [f"        o{k} += s * {c!r}" for k, c in coeffs]
        targets.update(k for k, _ in coeffs)
    coords = range(dim)
    lines = [
        "def bracket(x, y):",
        f"    ({''.join(f'x{i}, ' for i in coords)}) = x",
        f"    ({''.join(f'y{i}, ' for i in coords)}) = y",
        *(f"    o{k} = {zero!r}" for k in sorted(targets)),
        *body,
        f"    return [{', '.join(f'o{k}' if k in targets else repr(zero) for k in coords)}]",
    ]
    return compile_function(lines, "bracket", filename)


class SeriesReport(namedtuple("SeriesReport", "kind terms stabilized length")):
    """A derived or lower central series; `length` is None when the series
    never reaches zero."""

    @property
    def term_dims(self) -> tuple[int, ...]:
        return tuple(t.dim for t in self.terms)


class AlgebraPredicates(namedtuple("AlgebraPredicates", "is_solvable is_nilpotent")):
    """Solvability and nilpotency of an algebra."""


def direct_sum(g: LieAlgebra, h: LieAlgebra, name: str | None = None) -> LieAlgebra:
    """Direct sum with block structure constants and zero cross brackets."""
    taken = set(g.basis_names)
    h_names = []
    for bn in h.basis_names:
        nn = bn
        while nn in taken:
            nn = nn + "'"
        taken.add(nn)
        h_names.append(nn)
    d = g.dim
    brackets = {pair: dict(coeffs) for pair, coeffs in g.table}
    for (i, j), coeffs in h.table:
        brackets[(i + d, j + d)] = {k + d: c for k, c in coeffs}
    return LieAlgebra.create(
        name or f"{g.name}+{h.name}",
        tuple(g.basis_names) + tuple(h_names),
        brackets,
    )


# -- JSON interchange ---------------------------------------------------


def to_json_dict(g: LieAlgebra) -> dict:
    """Canonical interchange form: 1-based indices, i < j pairs only."""
    brackets = [
        {"i": i + 1, "j": j + 1, "result": {str(k + 1): format_rational(c) for k, c in coeffs}}
        for (i, j), coeffs in g.table
    ]
    return {
        "name": g.name,
        "dim": g.dim,
        "basis": list(g.basis_names),
        "brackets": brackets,
    }


# key tables of the interchange form, read like a scenario (serialize.read_object);
# the dimension bound is read before any bracket
DOCUMENT_KEYS = {"name": (str, REQUIRED, None), "dim": (int, REQUIRED, 0, MAX_CATALOG_DIM),
                 "basis": ([str], REQUIRED, None), "brackets": ([dict], [], None)}
BRACKET_KEYS = {"i": (int, REQUIRED, 1), "j": (int, REQUIRED, 1), "result": (dict, REQUIRED, None)}


def from_json_dict(data: dict) -> LieAlgebra:
    """Parse the interchange form, rejecting malformed payloads with a
    FormatError. The Jacobi identity is left to `jacobi_check`."""
    doc = read_object(data, DOCUMENT_KEYS, "the algebra document")
    dim, basis = doc["dim"], doc["basis"]
    if len(basis) != dim:
        raise FormatError(f"'basis' lists {len(basis)} names for dimension {dim}")
    if len(set(basis)) != dim:
        raise FormatError("'basis' names must be distinct")
    # only the canonical decimal form of 1..dim: "01" or "1_0" would alias another
    # index, and a key that is not a string (from a library caller) is not found
    indices = {str(k + 1): k for k in range(dim)}
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for entry in doc["brackets"]:
        i, j, result = read_object(entry, BRACKET_KEYS, "a bracket entry").values()
        if not i < j <= dim:
            raise FormatError(f"bracket pair ({i}, {j}) must have i < j <= {dim}")
        if (i - 1, j - 1) in brackets:
            raise FormatError(f"duplicate bracket pair ({i}, {j})")
        vec = brackets[(i - 1, j - 1)] = {}
        for key, val in result.items():
            if key not in indices:
                raise FormatError(f"bad result index {_quoted(key)}: not one of 1..{dim}")
            try:
                vec[indices[key]] = parse_rational(val)
            except ValueError as exc:
                raise FormatError(str(exc)) from None
    return LieAlgebra.create(doc["name"], basis, brackets)
