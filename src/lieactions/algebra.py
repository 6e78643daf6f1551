"""Lie algebras presented by exact rational structure constants.

A LieAlgebra stores brackets of basis pairs (i, j) with i < j only;
antisymmetry is synthesized, which removes one whole class of
inconsistent-input bugs. All series, centers and predicates are exact
certificates computed over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Mapping, Sequence

from .linalg import RatMatrix, Subspace, nullspace_of_rows, rational_vector, sparse_rref
from .serialize import format_rational, parse_rational

__all__ = [
    "LieAlgebra",
    "SeriesReport",
    "AlgebraPredicates",
    "FormatError",
    "InvalidLieAlgebraError",
    "direct_sum",
    "to_json_dict",
    "from_json_dict",
]


_ZERO = Fraction(0)


def _scaled(v: Sequence[Fraction]) -> tuple[list[tuple[int, int]], int]:
    """([(i, d * v_i), ...] for the nonzero v_i, d): v scaled to integers by
    the lcm d of its denominators."""
    nonzero = [(i, c) for i, c in enumerate(v) if c]
    d = lcm(*[c.denominator for _, c in nonzero])
    if d == 1:
        return [(i, c.numerator) for i, c in nonzero], 1
    return [(i, c.numerator * (d // c.denominator)) for i, c in nonzero], d


class FormatError(ValueError):
    """Malformed algebra interchange data."""


class InvalidLieAlgebraError(ValueError):
    """Structure constants violate the Jacobi identity."""

    def __init__(self, name: str, violations: list[tuple[int, int, int]]):
        self.violations = violations
        super().__init__(
            f"algebra {name!r} violates the Jacobi identity on basis triples "
            + ", ".join(str((i + 1, j + 1, k + 1)) for i, j, k in violations)
        )


@dataclass(frozen=True)
class LieAlgebra:
    """Finite-dimensional Lie algebra over Q given by structure constants."""

    name: str
    dim: int
    basis_names: tuple[str, ...]
    # ((i, j), coefficient vector of [e_i, e_j]) for i < j, zero pairs omitted
    table: tuple[tuple[tuple[int, int], tuple[Fraction, ...]], ...]

    @staticmethod
    def create(
        name: str,
        basis_names: Sequence[str],
        brackets: Mapping[tuple[int, int], Mapping[int, object] | Sequence],
        validate: bool = True,
    ) -> "LieAlgebra":
        """Build from 0-based sparse bracket data {(i, j): {k: c}} with i < j.

        Values may also be full coefficient vectors. With validate=True
        (the default) the Jacobi identity is checked and violations raise
        InvalidLieAlgebraError.
        """
        dim = len(basis_names)
        entries = []
        for (i, j), val in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket pair {(i, j)} must satisfy 0 <= i < j < dim")
            if isinstance(val, Mapping):
                vec = [Fraction(0)] * dim
                for k, c in val.items():
                    if not 0 <= k < dim:
                        raise ValueError(f"bracket target index {k} out of range")
                    vec[k] = Fraction(c)
                vec = tuple(vec)
            else:
                vec = rational_vector(val)
                if len(vec) != dim:
                    raise ValueError("bracket vector length mismatch")
            if any(vec):
                entries.append(((i, j), vec))
        entries.sort(key=lambda e: e[0])
        alg = LieAlgebra(name, dim, tuple(basis_names), tuple(entries))
        if validate:
            bad = alg.jacobi_check()
            if bad:
                raise InvalidLieAlgebraError(name, bad)
        return alg

    @staticmethod
    def from_matrix_basis(
        name: str, basis_names: Sequence[str], mats: Sequence[RatMatrix]
    ) -> "LieAlgebra":
        """Structure constants of a linearly independent family of matrices
        closed under commutator."""
        dim = len(mats)
        if dim == 0:
            return LieAlgebra.create(name, [], {})
        width = mats[0].rows * mats[0].cols
        # factor once: the RREF of [flat | I] is [R | E] with R = E @ flat, so
        # v = sum_t v[pivot t] R_t gives the coordinates sum_t v[pivot t] E_t
        reduced = sparse_rref(
            {**dict(enumerate(m.flat())), width + t: 1} for t, m in enumerate(mats)
        )
        if reduced[-1][0] >= width:
            raise ValueError("matrix basis is linearly dependent")
        brackets = {}
        for i in range(dim):
            for j in range(i + 1, dim):
                rest = list(mats[i].commutator(mats[j]).flat())
                coords = [Fraction(0)] * dim
                for pivot, row in reduced:
                    d = rest[pivot]
                    if d:
                        for col, v in row.items():
                            if col < width:
                                rest[col] -= d * v
                            else:
                                coords[col - width] += d * v
                if any(rest):
                    raise ValueError(
                        f"commutator [{basis_names[i]}, {basis_names[j]}] leaves the span"
                    )
                if any(coords):
                    brackets[(i, j)] = tuple(coords)
        return LieAlgebra.create(name, basis_names, brackets, validate=False)

    # -- bracket ------------------------------------------------------

    def structure_constant(self, i: int, j: int, k: int) -> Fraction:
        """The e_k-coefficient of [e_i, e_j]."""
        if i > j:
            return -self.structure_constant(j, i, k)
        return dict(self.sparse_table.get((i, j), ())).get(k, Fraction(0))

    def bracket(self, x: Sequence, y: Sequence) -> tuple[Fraction, ...]:
        """Exact bracket of coordinate vectors, summed in integers over the
        common denominator of x, y and the structure constants and divided once."""
        xv = rational_vector(x)
        yv = rational_vector(y)
        if len(xv) != self.dim or len(yv) != self.dim:
            raise ValueError("vector length != algebra dimension")
        den, table = self.integer_table
        nx, dx = _scaled(xv)
        ny, dy = _scaled(yv)
        out: dict[int, int] = {}
        for i, xi in nx:
            for j, yj in ny:
                if i < j:
                    vec, s = table.get((i, j)), xi * yj
                elif i > j:
                    vec, s = table.get((j, i)), -xi * yj
                else:
                    continue
                if vec is not None:
                    for k, c in vec:
                        out[k] = out.get(k, 0) + s * c
        den *= dx * dy
        result = [_ZERO] * self.dim
        for k, v in out.items():
            if v:
                result[k] = Fraction(v, den)
        return tuple(result)

    @cached_property
    def sparse_table(self) -> dict[tuple[int, int], list[tuple[int, Fraction]]]:
        """{(i, j): [(k, c), ...]} for the nonzero constants c of [e_i, e_j], i < j."""
        return {pair: [(k, c) for k, c in enumerate(vec) if c] for pair, vec in self.table}

    @cached_property
    def integer_table(self) -> tuple[int, dict[tuple[int, int], list[tuple[int, int]]]]:
        """(den, {(i, j): [(k, den * c), ...]}): `sparse_table` with every
        constant scaled to an integer by the lcm den of their denominators."""
        table = self.sparse_table
        den = lcm(*(c.denominator for coeffs in table.values() for _, c in coeffs))
        return den, {
            pair: [(k, c.numerator * (den // c.denominator)) for k, c in coeffs]
            for pair, coeffs in table.items()
        }

    @cached_property
    def float_table(self) -> tuple[tuple[int, int, tuple[tuple[int, float], ...]], ...]:
        """`sparse_table` as floats, in table order: (i, j, ((k, c), ...))."""
        return tuple(
            (i, j, tuple((k, float(c)) for k, c in coeffs))
            for (i, j), coeffs in self.sparse_table.items()
        )

    def bracket_numeric(self, x: Sequence[float], y: Sequence[float]) -> list[float]:
        """Float bracket for the numerical verification paths."""
        out = [0.0] * self.dim
        for i, j, coeffs in self.float_table:
            s = x[i] * y[j] - x[j] * y[i]
            if s:
                for k, c in coeffs:
                    out[k] += s * c
        return out

    def basis_vector(self, i: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(int(k == i)) for k in range(self.dim))

    def ad_matrix(self, x: Sequence) -> RatMatrix:
        """Matrix of ad_x acting on coordinates (column j is [x, e_j])."""
        cols = [self.bracket(x, self.basis_vector(j)) for j in range(self.dim)]
        return RatMatrix([[cols[j][k] for j in range(self.dim)] for k in range(self.dim)])

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
        """Span of brackets of basis pairs; equals [span u, span v]."""
        if u.ambient_dim != self.dim or v.ambient_dim != self.dim:
            raise ValueError("ambient dimension != algebra dimension")
        vecs = []
        for bu in u.basis_vectors():
            for bv in v.basis_vectors():
                w = self.bracket(bu, bv)
                if any(w):
                    vecs.append(w)
        return Subspace.span(vecs, self.dim)

    def commutator_ideal(self) -> Subspace:
        return self.subspace_bracket(self.full_space(), self.full_space())

    def is_ideal(self, s: Subspace) -> bool:
        return s.contains_subspace(self.subspace_bracket(self.full_space(), s))

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
        rows: dict[tuple[int, int], dict[int, Fraction]] = {}  # (j, k) -> {i: c_ij^k}
        for (i, j), coeffs in self.sparse_table.items():
            for k, c in coeffs:
                rows.setdefault((j, k), {})[i] = c
                rows.setdefault((i, k), {})[j] = -c
        return nullspace_of_rows(rows.values(), self.dim)

    def predicates(self) -> "AlgebraPredicates":
        return AlgebraPredicates(
            is_solvable=self.derived_length() is not None,
            is_nilpotent=self.nilpotency_class() is not None,
        )

    def jacobson_consistent(self) -> bool:
        """Solvability of g must match nilpotency of the commutator ideal."""
        ideal = self.commutator_ideal()
        ideal_nilpotent = self.lower_central_series_of(ideal).length is not None
        return (self.derived_length() is not None) == ideal_nilpotent


@dataclass(frozen=True)
class SeriesReport:
    kind: str
    terms: tuple[Subspace, ...]
    stabilized: bool
    length: int | None  # None means the series never reaches zero

    @property
    def term_dims(self) -> tuple[int, ...]:
        return tuple(t.dim for t in self.terms)


@dataclass(frozen=True)
class AlgebraPredicates:
    is_solvable: bool
    is_nilpotent: bool


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
    dim = g.dim + h.dim
    brackets = {}
    for (i, j), vec in g.table:
        brackets[(i, j)] = tuple(vec) + (Fraction(0),) * h.dim
    for (i, j), vec in h.table:
        brackets[(i + g.dim, j + g.dim)] = (Fraction(0),) * g.dim + tuple(vec)
    return LieAlgebra.create(
        name or f"{g.name}+{h.name}",
        tuple(g.basis_names) + tuple(h_names),
        brackets,
        validate=False,
    )


# -- JSON interchange ---------------------------------------------------


def to_json_dict(g: LieAlgebra) -> dict:
    """Canonical interchange form: 1-based indices, i < j pairs only."""
    brackets = []
    for (i, j), vec in g.table:
        result = {
            str(k + 1): format_rational(c) for k, c in enumerate(vec) if c
        }
        brackets.append({"i": i + 1, "j": j + 1, "result": result})
    return {
        "name": g.name,
        "dim": g.dim,
        "basis": list(g.basis_names),
        "brackets": brackets,
    }


def from_json_dict(data: Mapping, validate: bool = True) -> LieAlgebra:
    """Parse the interchange form, rejecting malformed payloads."""
    if not isinstance(data, Mapping):
        raise FormatError("algebra document must be a JSON object")
    try:
        name = data["name"]
        dim = data["dim"]
        basis = data["basis"]
    except KeyError as exc:
        raise FormatError(f"missing field {exc.args[0]!r}") from None
    if not isinstance(name, str):
        raise FormatError("'name' must be a string")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise FormatError("'dim' must be a nonnegative integer")
    if not isinstance(basis, list) or len(basis) != dim or not all(
        isinstance(b, str) for b in basis
    ):
        raise FormatError("'basis' must list one name per dimension")
    raw = data.get("brackets", [])
    if not isinstance(raw, list):
        raise FormatError("'brackets' must be a list")
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for item in raw:
        if not isinstance(item, Mapping):
            raise FormatError("bracket entries must be objects")
        try:
            i = item["i"]
            j = item["j"]
            result = item["result"]
        except KeyError as exc:
            raise FormatError(f"bracket entry missing {exc.args[0]!r}") from None
        if not isinstance(i, int) or not isinstance(j, int) or isinstance(i, bool) or isinstance(j, bool):
            raise FormatError("bracket indices must be integers")
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise FormatError(f"bracket indices ({i}, {j}) out of range 1..{dim}")
        if i >= j:
            raise FormatError(f"bracket pair ({i}, {j}) must have i < j")
        if (i - 1, j - 1) in brackets:
            raise FormatError(f"duplicate bracket pair ({i}, {j})")
        if not isinstance(result, Mapping):
            raise FormatError("bracket 'result' must be an object")
        vec: dict[int, Fraction] = {}
        for key, val in result.items():
            try:
                k = int(key)
            except (TypeError, ValueError):
                raise FormatError(f"bad result index {key!r}") from None
            if not 1 <= k <= dim:
                raise FormatError(f"result index {k} out of range 1..{dim}")
            try:
                vec[k - 1] = parse_rational(val)
            except ValueError as exc:
                raise FormatError(str(exc)) from None
        brackets[(i - 1, j - 1)] = vec
    return LieAlgebra.create(name, basis, brackets, validate=validate)
