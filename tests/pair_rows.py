"""Between dense matrices and `linalg.PairRows`, the one form in which the
exact layer makes and reads a matrix: a tuple of rows, each a tuple of
(column, Fraction) pairs in column order with zeros dropped; the dense
basis vectors of an algebra, and their exact bracket (`exact_bracket`,
which only the tests use: the program brackets sparse integer vectors
with `LieAlgebra._bracket`); and the span of dense vectors, which
`Subspace.span` takes as sparse {column: value} rows."""

from fractions import Fraction

from lieactions.linalg import Subspace, _integer, rational_vector


def pairs(dense) -> tuple:
    """The pair rows of a matrix given as rows of ints or Fractions."""
    return tuple(tuple((j, Fraction(x)) for j, x in enumerate(row) if x) for row in dense)


def dense(m) -> list[list[Fraction]]:
    """The square matrix with pair rows m as lists of Fractions."""
    out = [[Fraction(0)] * len(m) for _ in m]
    for row, entries in zip(out, m):
        for j, x in entries:
            row[j] = x
    return out


def basis_vector(g, i: int) -> tuple[Fraction, ...]:
    """e_i of the algebra g as a dense tuple of Fractions."""
    return tuple(Fraction(int(k == i)) for k in range(g.dim))


def exact_bracket(g, x, y) -> tuple[Fraction, ...]:
    """The exact bracket of coordinate vectors of the algebra g (ints or
    Fractions) as a dense tuple of Fractions: `_bracket` of x and
    y scaled to integers, divided once by the common denominator."""
    xv, yv = rational_vector(x), rational_vector(y)
    if len(xv) != g.dim or len(yv) != g.dim:
        raise ValueError("vector length != algebra dimension")
    (nx, dx), (ny, dy) = _integer(xv), _integer(yv)
    den = g.den * dx * dy
    out = [Fraction(0)] * g.dim
    for k, v in g._bracket(nx, ny).items():
        out[k] = Fraction(v, den)
    return tuple(out)


def span(vectors, ambient_dim: int) -> Subspace:
    """Subspace.span of vectors given as sequences of length ambient_dim."""
    rows = []
    for v in map(rational_vector, vectors):
        if len(v) != ambient_dim:
            raise ValueError("vector length != ambient dimension")
        rows.append({j: x for j, x in enumerate(v) if x})
    return Subspace.span(rows, ambient_dim)
