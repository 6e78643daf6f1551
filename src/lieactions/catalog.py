"""Catalog of named Lie algebras over Q.

Families
--------
abelian(m)        zero brackets, dim m
heisenberg(2k+1)  [p_i, q_i] = z
t(n)              upper triangular matrices, dim n(n+1)/2
d(n)              diagonal matrices, dim n
st(n)             unimodular (traceless) upper triangular, dim n(n+1)/2 - 1
st_prime(n)       strictly upper triangular (the commutator ideal of st(n))
sl(n)             traceless matrices, dim n^2 - 1
N(n)              st_prime(n) + a 1-dimensional center
mueller_roemer7   the 7-dimensional algebra whose derivations are all nilpotent
st_c(n), sl_c(n)  realifications of the complex families (dim doubled)

Matrix families use the elementary-matrix basis T(i,j); the traceless
diagonal part is spanned by H_i = T(i,i) - T(i+1,i+1). Strict upper
triangular basis vectors are ordered by distance from the diagonal and
then by row, which makes the nilpotent grading explicit.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, partial

from .algebra import LieAlgebra, direct_sum
from .constants import MAX_CATALOG_DIM
from .linalg import RatMatrix
from .serialize import FormatError

__all__ = [
    "catalog",
    "catalog_matrices",
    "parse_catalog_key",
    "convention_notes",
    "DEFAULT_CATALOG",
]


def _unit_matrix(n: int, i: int, j: int) -> RatMatrix:
    rows = [[Fraction(0)] * n for _ in range(n)]
    rows[i][j] = Fraction(1)
    return RatMatrix(rows)


def _traceless_diag(n: int, i: int) -> RatMatrix:
    rows = [[Fraction(0)] * n for _ in range(n)]
    rows[i][i] = Fraction(1)
    rows[i + 1][i + 1] = Fraction(-1)
    return RatMatrix(rows)


def _strict_upper(n: int) -> tuple[list[str], list[RatMatrix]]:
    names, mats = [], []
    for dist in range(1, n):
        for i in range(n - dist):
            names.append(f"E{i + 1}{i + 1 + dist}")
            mats.append(_unit_matrix(n, i, i + dist))
    return names, mats


def abelian(m: int) -> LieAlgebra:
    if m < 0:
        raise ValueError("dimension must be nonnegative")
    return LieAlgebra.create(f"abelian({m})", [f"A{i + 1}" for i in range(m)], {})


def heisenberg(dim: int) -> LieAlgebra:
    if dim < 3 or dim % 2 == 0:
        raise ValueError("heisenberg dimension must be odd and >= 3")
    k = (dim - 1) // 2
    names = [f"P{i + 1}" for i in range(k)] + [f"Q{i + 1}" for i in range(k)] + ["Z"]
    brackets = {(i, k + i): {2 * k: 1} for i in range(k)}
    return LieAlgebra.create(f"heisenberg({dim})", names, brackets)


def _d_data(n: int) -> tuple[list[str], list[RatMatrix]]:
    names = [f"T{i + 1}{i + 1}" for i in range(n)]
    return names, [_unit_matrix(n, i, i) for i in range(n)]


def _t_data(n: int) -> tuple[list[str], list[RatMatrix]]:
    names, mats = _d_data(n)
    un, um = _strict_upper(n)
    return names + un, mats + um


def _st_data(n: int) -> tuple[list[str], list[RatMatrix]]:
    names = [f"H{i + 1}" for i in range(n - 1)]
    mats = [_traceless_diag(n, i) for i in range(n - 1)]
    un, um = _strict_upper(n)
    return names + un, mats + um


def _sl_data(n: int) -> tuple[list[str], list[RatMatrix]]:
    names = [f"H{i + 1}" for i in range(n - 1)]
    mats = [_traceless_diag(n, i) for i in range(n - 1)]
    un, um = _strict_upper(n)
    names += un
    mats += um
    for dist in range(1, n):
        for i in range(n - dist):
            names.append(f"E{i + 1 + dist}{i + 1}")
            mats.append(_unit_matrix(n, i + dist, i))
    return names, mats


# family -> (smallest n, the named matrix basis of the family at n)
_MATRIX_FAMILIES = {
    "t": (2, _t_data),
    "st": (2, _st_data),
    "st_prime": (2, _strict_upper),
    "sl": (2, _sl_data),
    "d": (1, _d_data),
}


def _matrix_algebra(family: str, n: int) -> tuple[LieAlgebra, tuple[RatMatrix, ...]]:
    low, data = _MATRIX_FAMILIES[family]
    if n < low:
        raise ValueError(f"{family}(n) needs n >= {low}")
    names, mats = data(n)
    alg = LieAlgebra.from_matrix_basis(f"{family}({n})", names, mats)
    return alg, tuple(mats)


def big_n(n: int) -> LieAlgebra:
    """N(n) = st_prime(n) + abelian(1): nilpotent with 2-dimensional center."""
    if n < 2:
        raise ValueError("N(n) needs n >= 2")
    alg, _ = _matrix_algebra("st_prime", n)
    return direct_sum(alg, abelian(1), name=f"N({n})")


def mueller_roemer7() -> LieAlgebra:
    """The 7-dimensional nilpotent algebra with a unipotent derivation algebra."""
    brackets = {
        (0, 1): {2: 1},
        (0, 2): {3: 1},
        (0, 3): {4: 1},
        (0, 4): {5: 1},
        (0, 5): {6: 1},
        (1, 2): {5: 1},
        (1, 3): {6: 1},
        (1, 4): {6: -1},
        (2, 3): {6: 1},
    }
    return LieAlgebra.create(
        "mueller_roemer7", [f"X{i + 1}" for i in range(7)], brackets
    )


def realify(g: LieAlgebra, name: str) -> LieAlgebra:
    """Realification of a complex algebra with rational structure constants.

    Each basis element X splits into X and iX; brackets follow from
    C-bilinearity: [X_a, iX_b] = i[X_a, X_b] and [iX_a, iX_b] = -[X_a, X_b].
    """
    d = g.dim
    names = list(g.basis_names) + [f"i{b}" for b in g.basis_names]
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j), coeffs in g.table:
        brackets[(i, j)] = dict(coeffs)
        brackets[(i, j + d)] = {k + d: c for k, c in coeffs}
        brackets[(j, i + d)] = {k + d: -c for k, c in coeffs}
        brackets[(i + d, j + d)] = {k: -c for k, c in coeffs}
    return LieAlgebra.create(name, names, brackets)


def _complex(family: str, n: int) -> tuple[LieAlgebra, None]:
    """The realification of the matrix family over C; it has no matrix model here."""
    return realify(_matrix_algebra(family, n)[0], f"{family}_c({n})"), None


_KEY_RE = re.compile(r"^([a-zA-Z_]+?)_?(\d+)?$")

_FAMILY_ALIASES = {
    "n": "N",
    "mr": "mueller_roemer",
}


def parse_catalog_key(key: str) -> tuple[str, int | None]:
    """Split an identifier like 'st3' or 'heisenberg5' into (family, param)."""
    m = _KEY_RE.match(key.strip())
    if not m:
        raise ValueError(f"unknown catalog key {key!r}")
    family = m.group(1).rstrip("_")
    param = int(m.group(2)) if m.group(2) else None
    family = _FAMILY_ALIASES.get(family.lower(), family)
    return family, param


def catalog(name: str, param: int | None = None) -> LieAlgebra:
    """Construct a named algebra; accepts ('st', 3) or a key like 'st3'."""
    alg, _ = _build(name, param)
    return alg


def catalog_matrices(name: str, param: int | None = None) -> tuple[RatMatrix, ...] | None:
    """Defining matrices of a catalog entry, when it has a matrix model."""
    _, mats = _build(name, param)
    return mats


# Each sized family, by lower-case name: the dimension at size n, known
# before anything is built, and the builder of (algebra, defining matrices).
_FAMILIES = {
    "abelian": (lambda m: m, lambda m: (abelian(m), None)),
    "heisenberg": (lambda d: d, lambda d: (heisenberg(d), None)),
    "t": (lambda n: n * (n + 1) // 2, partial(_matrix_algebra, "t")),
    "st": (lambda n: n * (n + 1) // 2 - 1, partial(_matrix_algebra, "st")),
    "st_prime": (lambda n: n * (n - 1) // 2, partial(_matrix_algebra, "st_prime")),
    "sl": (lambda n: n * n - 1, partial(_matrix_algebra, "sl")),
    "d": (lambda n: n, partial(_matrix_algebra, "d")),
    "n": (lambda n: n * (n - 1) // 2 + 1, lambda n: (big_n(n), None)),
    "st_c": (lambda n: n * (n + 1) - 2, partial(_complex, "st")),
    "sl_c": (lambda n: 2 * n * n - 2, partial(_complex, "sl")),
}


# Memoised: algebras, their cached invariants and the matrix tuples are
# immutable, so one construction per key and process suffices.
@lru_cache(maxsize=None)
def _build(name: str, param: int | None) -> tuple[LieAlgebra, tuple[RatMatrix, ...] | None]:
    if param is None:
        name, param = parse_catalog_key(name)
    family = name.lower()
    if family in ("mueller_roemer", "mueller_roemer7", "mr7"):
        return mueller_roemer7(), None
    if param is None:
        raise ValueError(f"catalog family {name!r} needs a size parameter")
    if family not in _FAMILIES:
        raise ValueError(f"unknown catalog family {name!r}")
    dimension, build = _FAMILIES[family]
    if dimension(param) > MAX_CATALOG_DIM:
        raise FormatError(
            f"catalog family {name!r} with parameter {param} has dimension "
            f"{dimension(param)}, above the bound {MAX_CATALOG_DIM}"
        )
    return build(param)


# Entries listed by `catalog list` and swept by the acceptance suite.
DEFAULT_CATALOG: tuple[tuple[str, str], ...] = (
    ("abelian2", "abelian algebra of dimension 2"),
    ("heisenberg3", "Heisenberg algebra, [P1, Q1] = Z"),
    ("st2", "unimodular upper triangular 2x2"),
    ("st3", "unimodular upper triangular 3x3"),
    ("st4", "unimodular upper triangular 4x4"),
    ("st_prime3", "strictly upper triangular 3x3"),
    ("st_prime4", "strictly upper triangular 4x4"),
    ("t3", "upper triangular 3x3"),
    ("d3", "diagonal 3x3 (abelian)"),
    ("sl2", "traceless 2x2"),
    ("n3", "N(3) = st_prime(3) + center"),
    ("n4", "N(4) = st_prime(4) + center"),
    ("mueller_roemer7", "7-dim nilpotent, all derivations nilpotent (alias mr7)"),
    ("st_c2", "realified complex st(2)"),
    ("sl_c2", "realified complex sl(2)"),
)


def convention_notes(name: str, param: int | None, computed_derived_length) -> list[str]:
    """Flags for entries whose computed derived length disagrees with the
    value sometimes quoted for the family in the literature."""
    family, p = (name, param) if param is not None else parse_catalog_key(name)
    notes = []
    if family.lower() == "st" and p is not None:
        quoted = p + 1
        if computed_derived_length != quoted:
            notes.append(
                f"derived length computed from the series definition is "
                f"{computed_derived_length}; the value {quoted} (= m+1) quoted for "
                f"this family in parts of the literature does not match the "
                f"recursive definition and is not used"
            )
    if family in ("N", "n") and p is not None:
        quoted = p
        if computed_derived_length != quoted:
            notes.append(
                f"derived length computed from the series definition is "
                f"{computed_derived_length}; the value {quoted} (= n) quoted for "
                f"N(n) in parts of the literature does not match; verdicts use "
                f"the computed borderline dimension"
            )
    return notes
