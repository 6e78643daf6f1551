"""Exact linear algebra: canonical RREF, kernels, subspaces."""

import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lieactions.linalg import RatMatrix, Subspace, nullspace, solve, sparse_rref

small_int = st.integers(min_value=-6, max_value=6)


def rref(m: RatMatrix) -> RatMatrix:
    """The canonical RREF of m from `sparse_rref`, as a matrix of m's shape
    with the zero rows last."""
    pivot_rows = sparse_rref(m.row(i) for i in range(m.rows))
    reduced = [[row.get(j, Fraction(0)) for j in range(m.cols)] for _, row in pivot_rows]
    return RatMatrix(reduced + [[Fraction(0)] * m.cols] * (m.rows - len(reduced)))


def _apply(m: RatMatrix, v) -> tuple:
    """m times the column vector v."""
    return tuple(sum((x * y for x, y in zip(m.row(i), v)), Fraction(0)) for i in range(m.rows))


def matrices(rows, cols):
    return st.lists(
        st.lists(small_int, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(RatMatrix)


def test_rref_identity_is_canonical():
    m = RatMatrix.identity(2)
    assert rref(m) == m


def test_rref_rank_one():
    m = RatMatrix([[2, 4], [1, 2]])
    assert rref(m) == RatMatrix([[1, 2], [0, 0]])
    assert m.rank() == 1


def _row_space_contains(a: RatMatrix, b: RatMatrix) -> bool:
    """Oracle: every row of b solvable as a combination of rows of a."""
    at = RatMatrix(list(zip(*(a.row(i) for i in range(a.rows)))))
    return all(solve(at, b.row(i)) is not None for i in range(b.rows))


def test_rref_preserves_row_space_random():
    rng = random.Random(5)
    for _ in range(20):
        m = RatMatrix([[rng.randint(-5, 5) for _ in range(5)] for _ in range(5)])
        r = rref(m)
        assert _row_space_contains(m, r)
        assert _row_space_contains(r, m)


@settings(max_examples=30, deadline=None)
@given(matrices(4, 3))
def test_rref_idempotent(m):
    assert rref(rref(m)) == rref(m)


def test_nullspace_identity_and_zero():
    assert nullspace(RatMatrix.identity(4)).dim == 0
    full = nullspace(RatMatrix.zeros(3, 3))
    assert full == Subspace.full(3)


def test_nullspace_dimension_and_membership():
    rng = random.Random(11)
    for _ in range(15):
        m = RatMatrix([[rng.randint(-4, 4) for _ in range(4)] for _ in range(6)])
        ker = nullspace(m)
        assert ker.dim == 4 - m.rank()
        for b in ker.basis_vectors():
            assert all(x == 0 for x in _apply(m, b))


@settings(max_examples=30, deadline=None)
@given(matrices(5, 4))
def test_nullspace_vectors_annihilated(m):
    ker = nullspace(m)
    for b in ker.basis_vectors():
        assert all(x == 0 for x in _apply(m, b))


def test_span_takes_sparse_rows():
    dense = Subspace.span([[0, 2, 0, 4], [1, 0, 0, 0]], 4)
    assert Subspace.span([{1: 2, 3: 4}, {0: Fraction(1, 3)}, {}], 4) == dense


def test_subspace_equality_is_representation_equality():
    a = Subspace.span([[2, 4], [1, 3]], 2)
    b = Subspace.span([[1, 0], [0, 1]], 2)
    assert a == b
    assert hash(a) == hash(b)


def test_contains():
    u = Subspace.span([[1, 0, 1], [0, 1, 1]], 3)
    assert u.contains([1, 1, 2])
    assert not u.contains([0, 0, 1])
    assert u.contains([0, 0, 0])
    zero = Subspace.zero(3)
    assert zero.contains([0, 0, 0])
    assert not zero.contains([0, Fraction(1, 2), 0])
    assert u.contains_subspace(zero) and not zero.contains_subspace(u)
    with pytest.raises(ValueError):
        u.contains([1, 1])


def test_ambient_mismatch_rejected():
    u = Subspace.span([[1, 0]], 2)
    v = Subspace.span([[1, 0, 0]], 3)
    with pytest.raises(ValueError):
        u.contains_subspace(v)
    with pytest.raises(ValueError):
        u.contains([1, 0, 0])


def test_solve_consistent_and_inconsistent():
    a = RatMatrix([[1, 2], [3, 4]])
    x = solve(a, [5, 11])
    assert x is not None
    assert _apply(a, x) == (Fraction(5), Fraction(11))
    singular = RatMatrix([[1, 2], [2, 4]])
    assert solve(singular, [1, 0]) is None


def test_fractional_entries():
    m = RatMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]])
    assert m.rank() == 1
    r = rref(m)
    assert r.row(0) == (Fraction(1), Fraction(2, 3))


# -- sympy oracle for the one elimination routine -------------------------------

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
# three zeros in four entries: the shape of structure-constant systems
sparse_entries = st.integers(0, 3).flatmap(lambda t: st.just(Fraction(0)) if t else fractions)


@st.composite
def oracle_matrices(draw):
    """Wide, tall and square matrices, sparse or dense, with fractional
    entries and some rows forced to zero."""
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 7))
    entries = draw(st.sampled_from([fractions, sparse_entries]))
    data = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=rows // 2)):
        data[i] = [Fraction(0)] * cols
    return data


def to_fractions(m: sp.Matrix) -> list[list[Fraction]]:
    return [[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)]


def sympy_solution(data, b):
    """Solution with free variables zero, read off sympy's RREF of [A | b]."""
    cols = len(data[0])
    reduced, pivots = sp.Matrix([row + [bi] for row, bi in zip(data, b)]).rref()
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for t, p in enumerate(pivots):
        x[p] = to_fractions(reduced)[t][cols]
    return tuple(x)


@settings(max_examples=150, deadline=None)
@given(oracle_matrices())
def test_rref_rank_nullspace_match_sympy(data):
    m = RatMatrix(data)
    reduced, pivots = sp.Matrix(data).rref()
    assert rref(m) == RatMatrix(to_fractions(reduced))
    assert m.rank() == len(pivots)
    kernel = sp.Matrix(data).nullspace()
    if kernel:
        want = to_fractions(sp.Matrix.hstack(*kernel).T.rref()[0])
        assert nullspace(m) == Subspace(m.cols, RatMatrix(want))
    else:
        assert nullspace(m).dim == 0


@settings(max_examples=150, deadline=None)
@given(oracle_matrices(), st.data())
def test_solve_matches_sympy(data, draw):
    b = draw.draw(st.lists(fractions, min_size=len(data), max_size=len(data)))
    assert solve(RatMatrix(data), b) == sympy_solution(data, b)
    # a zero row with a nonzero right-hand side is always inconsistent
    cols = len(data[0])
    assert solve(RatMatrix(data + [[0] * cols]), b + [Fraction(1, 3)]) is None
    assert sympy_solution(data + [[Fraction(0)] * cols], b + [Fraction(1, 3)]) is None


def test_inconsistent_solve():
    assert solve(RatMatrix([[1, 1], [2, 2], [0, 0]]), [1, 3, 0]) is None
    assert solve(RatMatrix([[0, 0]]), [Fraction(1, 2)]) is None
