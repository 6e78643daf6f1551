"""Exact linear algebra over the rationals.

All invariant computations in this package reduce to row reduction and
kernels over Q. The working form is the sparse integer row
{column: integer}: `sparse_rref` eliminates such rows fraction-free and
returns the canonical RREF. `RatMatrix` and `Subspace` are dense values
with no arithmetic, used where results leave the exact layer (reports,
tests). Everything here is exact: no floats, no thresholds. Subspaces
are kept in canonical reduced row-echelon form so that equality of
subspaces is equality of representations.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

__all__ = [
    "RatMatrix",
    "Subspace",
    "nullspace",
    "nullspace_of_rows",
    "solve",
    "sparse_rref",
]

_ZERO = Fraction(0)


def as_rational(x) -> Fraction:
    """Coerce ints, strings like '2/3', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def rational_vector(xs: Iterable) -> tuple[Fraction, ...]:
    return tuple(x if x.__class__ is Fraction else as_rational(x) for x in xs)


class RatMatrix:
    """Immutable matrix with Fraction entries, stored row-major: a value
    for reports and tests, with no arithmetic (the exact layer works on
    sparse integer rows)."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data: Sequence[Sequence]) -> None:
        self._data = tuple(rational_vector(row) for row in data)
        self.rows = len(self._data)
        self.cols = len(self._data[0]) if self._data else 0
        if any(len(r) != self.cols for r in self._data):
            raise ValueError("ragged rows")

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "RatMatrix":
        z = Fraction(0)
        return RatMatrix([[z] * cols for _ in range(rows)])

    @staticmethod
    def from_flat(rows: int, cols: int, flat: Sequence) -> "RatMatrix":
        if len(flat) != rows * cols:
            raise ValueError("flat length mismatch")
        return RatMatrix([flat[i * cols:(i + 1) * cols] for i in range(rows)])

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._data[i]

    def entry(self, i: int, j: int) -> Fraction:
        return self._data[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._data))

    def rank(self) -> int:
        return len(_echelon(map(_int_row, self._data)))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self._data)
        return f"RatMatrix({self.rows}x{self.cols}: {body})"


def _integer(row: Mapping[int, Fraction] | Sequence[Fraction]) -> tuple[dict[int, int], int]:
    """(d * row as {col: value} with zeros dropped, d): a row of Fractions or
    ints, as a sequence or a {col: value} mapping, scaled to integers by the
    lcm d of its denominators."""
    items = row.items() if isinstance(row, Mapping) else enumerate(row)
    entries = [(j, x) for j, x in items if x]
    den = lcm(*(x.denominator for _, x in entries))
    if den == 1:
        return {j: x.numerator for j, x in entries}, 1
    return {j: x.numerator * (den // x.denominator) for j, x in entries}, den


def _int_row(row: Mapping[int, Fraction] | Sequence[Fraction]) -> dict[int, int]:
    """Primitive integer multiple of a rational row as {col: value}, zeros dropped."""
    return _primitive(_integer(row)[0])


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    if g > 1:
        return {j: v // g for j, v in row.items()}
    return row


def _eliminate(row: dict[int, int], prow: dict[int, int], col: int) -> dict[int, int]:
    """Fraction-free step: clear row[col] with the pivot row prow."""
    a, b = prow[col], row[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {j: a * v for j, v in row.items()} if a != 1 else dict(row)
    for j, v in prow.items():
        w = out.get(j, 0) - b * v
        if w:
            out[j] = w
        else:
            out.pop(j, None)
    return _primitive(out)


def _echelon(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Row echelon form of sparse integer rows, keyed by leading column.

    Rows ({col: nonzero integer}) are added one at a time and reduced
    against the pivot rows found so far, in the fraction-free manner of
    Bareiss with the content divided out after every step. Zero rows
    vanish; the number of keys is the rank.
    """
    echelon: dict[int, dict[int, int]] = {}
    for row in rows:
        _insert(echelon, row)
    return echelon


def _insert(echelon: dict[int, dict[int, int]], r: dict[int, int]) -> dict[int, int] | None:
    """Reduce the integer row r against the echelon and keep what is left
    as a new pivot row; return that row, or None when r was dependent."""
    while r:
        lead = min(r)
        prow = echelon.get(lead)
        if prow is None:
            echelon[lead] = r
            return r
        r = _eliminate(r, prow, lead)
    return None


def sparse_rref(rows: Iterable) -> list[tuple[int, dict[int, Fraction]]]:
    """Canonical RREF of the row space as (pivot column, sparse row) pairs
    in pivot order. Rows are sequences or {col: value} mappings of
    Fractions or ints."""
    return _backward(_echelon(map(_int_row, rows)))


def _backward(echelon: dict[int, dict[int, int]]) -> list[tuple[int, dict[int, Fraction]]]:
    """The canonical RREF of the row space of `echelon`, integer rows keyed
    by distinct leading columns as `_echelon` returns them: clear each pivot
    column above its pivot, last pivot first, and only then divide by the
    pivots. The rows of `echelon` are replaced as they are reduced."""
    order = sorted(echelon)
    for t in range(len(order) - 1, 0, -1):
        col = order[t]
        prow = echelon[col]
        for s in order[:t]:
            row = echelon[s]
            if col in row:
                echelon[s] = _eliminate(row, prow, col)
    return [(c, {j: Fraction(v, echelon[c][c]) for j, v in echelon[c].items()}) for c in order]


def _row_times(row: Mapping[int, int], rows: Sequence[Mapping[int, int]]) -> dict[int, int]:
    """The sparse row vector `row` times the matrix with sparse rows `rows`
    ({col: value}, of ints or Fractions), zeros dropped."""
    out: dict[int, int] = {}
    for k, a in row.items():
        for c, x in rows[k].items():
            out[c] = out.get(c, 0) + a * x
    return {c: v for c, v in out.items() if v}


def _dense(row: Mapping[int, Fraction], ncols: int) -> tuple[Fraction, ...]:
    out = [_ZERO] * ncols
    for j, v in row.items():
        out[j] = v
    return tuple(out)


class Subspace(namedtuple("Subspace", "ambient_dim basis")):
    """A subspace of Q^n, represented by its canonical RREF basis.

    The basis matrix has one row per basis vector and no zero rows, so
    two subspaces are equal iff their representations are equal.
    """

    @staticmethod
    def span(vectors: Iterable, ambient_dim: int) -> "Subspace":
        """The span of vectors given as sequences of length ambient_dim or
        as sparse {col: value} mappings, the rows `sparse_rref` takes."""
        vecs = [v if isinstance(v, Mapping) else rational_vector(v) for v in vectors]
        if any(len(v) != ambient_dim for v in vecs if not isinstance(v, Mapping)):
            raise ValueError("vector length != ambient dimension")
        return _subspace(sparse_rref(vecs), ambient_dim)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, RatMatrix.zeros(0, ambient_dim))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, RatMatrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_vectors(self) -> list[tuple[Fraction, ...]]:
        return [self.basis.row(i) for i in range(self.basis.rows)]

    def contains(self, x: Sequence) -> bool:
        """Exact membership test: x reduces to zero against the basis."""
        v = rational_vector(x)
        if len(v) != self.ambient_dim:
            raise ValueError("vector length != ambient dimension")
        return _insert(self._pivot_rows(), _int_row(v)) is None

    def contains_subspace(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        # `_insert` adds a row to the echelon only when it is not contained, and all() then stops
        echelon = self._pivot_rows()
        return all(_insert(echelon, _int_row(b)) is None for b in other.basis._data)

    def _pivot_rows(self) -> dict[int, dict[int, int]]:
        """The basis as integer rows keyed by their pivot columns, an echelon
        for `_insert` to reduce against."""
        return {min(r): r for r in map(_int_row, self.basis._data)}

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def _subspace(reduced: list[tuple[int, dict[int, Fraction]]], ambient_dim: int) -> Subspace:
    if not reduced:
        return Subspace.zero(ambient_dim)
    return Subspace(ambient_dim, RatMatrix([_dense(row, ambient_dim) for _, row in reduced]))


def nullspace(m: RatMatrix) -> Subspace:
    """Kernel {x : m @ x = 0} with canonical basis."""
    return nullspace_of_rows(m._data, m.cols)


def nullspace_of_rows(rows: Iterable, ncols: int) -> Subspace:
    """Kernel of the matrix with the given rows (sequences or sparse
    {col: value} mappings), with canonical basis."""
    return _kernel(_echelon(map(_int_row, rows)), ncols)


def _kernel(echelon: dict[int, dict[int, int]], ncols: int) -> Subspace:
    """Kernel of integer rows keyed by distinct leading columns, as `_echelon`
    returns them, with canonical basis; `echelon` is left as it was."""
    return _subspace(sparse_rref(_kernel_vectors(_backward(dict(echelon)), ncols)), ncols)


def _kernel_vectors(reduced: list[tuple[int, dict[int, Fraction]]], ncols: int) -> list[dict[int, Fraction]]:
    """A basis of the kernel of the RREF rows `reduced` as sparse vectors,
    one per free column f: e_f - sum_t R[t][f] e_{pivot t}, in order of f."""
    pivots = {col for col, _ in reduced}
    kernel = {f: {f: Fraction(1)} for f in range(ncols) if f not in pivots}
    for col, row in reduced:
        for f, v in row.items():
            if f != col:
                kernel[f][col] = -v
    return list(kernel.values())


def solve(a: RatMatrix, b: Sequence) -> tuple[Fraction, ...] | None:
    """One exact solution of a @ x = b, or None if inconsistent.

    Free variables are set to zero.
    """
    bb = rational_vector(b)
    if len(bb) != a.rows:
        raise ValueError("rhs length mismatch")
    aug = [a.row(i) + (bb[i],) for i in range(a.rows)]
    x = [_ZERO] * a.cols
    for col, row in sparse_rref(aug):
        if col == a.cols:
            return None
        x[col] = row.get(a.cols, _ZERO)
    return tuple(x)
