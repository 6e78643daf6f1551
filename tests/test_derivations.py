"""Derivation algebras and the nilpotent-span certificate."""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lieactions import derivations
from lieactions.algebra import LieAlgebra, from_json_dict
from lieactions.catalog import DEFAULT_CATALOG, catalog
from lieactions.derivations import (
    contractibility_obstruction,
    derivation_algebra,
    engel_flag,
    find_non_nilpotent,
)
from lieactions.linalg import RatMatrix, nullspace_of_rows, solve

from clirunner import invoke
from pair_rows import basis_vector, dense, exact_bracket, pairs, span


def unit(n, i, j, val=1):
    rows = [[Fraction(0)] * n for _ in range(n)]
    rows[i][j] = Fraction(val)
    return pairs(rows)


# dense arithmetic for the oracles: the exact layer's matrices are pair rows without arithmetic


def _mul(a, b):
    """The product of two matrices given as lists of rows."""
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def _apply(m, v):
    """The matrix m times the column vector v."""
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in dense(m))


def _combination(coeffs, mats):
    """sum c * m as pair rows."""
    n = len(mats[0])
    lists = [dense(m) for m in mats]
    return pairs([[sum((c * m[i][j] for c, m in zip(coeffs, lists)), Fraction(0)) for j in range(n)]
                  for i in range(n)])


def _sp(m):
    return sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in row] for row in dense(m)])


def _flat(m):
    """The entries of a matrix, row by row."""
    return tuple(x for row in dense(m) for x in row)


def _is_zero(m):
    return not any(_flat(m))


def _catalog_entries():
    """(key, algebra, description) for every default catalog entry."""
    return [(key, catalog(key), desc) for key, desc in DEFAULT_CATALOG]


def _structure_constant(g, i, j, k):
    """The e_k-coefficient of [e_i, e_j], read from the table."""
    if i > j:
        return -_structure_constant(g, j, i, k)
    return dict(dict(g.table).get((i, j), ())).get(k, Fraction(0))


def _ad_matrix(g, x):
    """The matrix of ad x on coordinates: column j is [x, e_j]."""
    return pairs(zip(*(exact_bracket(g, x, basis_vector(g, j)) for j in range(g.dim))))


def _inner_derivations(g):
    """The ad matrices of the basis vectors."""
    return [_ad_matrix(g, basis_vector(g, i)) for i in range(g.dim)]


def _span(der):
    """The derivation span as a subspace of Q^(n^2)."""
    return span([_flat(m) for m in der.basis], der.parent.dim ** 2)


def _contains(der, mat):
    """Exact membership of a matrix in the derivation span."""
    return _span(der).contains(_flat(mat))


def _is_nil_family(mats, ambient_dim):
    """True iff every element of the linear span of mats is nilpotent."""
    return engel_flag(list(mats), ambient_dim) is not None


def _commutator_closed(der):
    """True iff the derivation span is closed under the matrix commutator."""
    def commutator(a, b):
        ab, ba = _mul(dense(a), dense(b)), _mul(dense(b), dense(a))
        return pairs([[x - y for x, y in zip(r, q)] for r, q in zip(ab, ba)])

    return all(_contains(der, commutator(a, b)) for a, b in itertools.combinations(der.basis, 2))


def test_derivations_of_abelian_are_all_matrices():
    for m in (2, 3):
        assert derivation_algebra(catalog("abelian", m)).dim == m * m


def test_derivations_of_sl2_are_inner():
    g = catalog("sl2")
    der = derivation_algebra(g)
    assert der.dim == 3
    ads = _inner_derivations(g)
    for ad in ads:
        assert _contains(der, ad)
    # oracle: the ad images span a 3-dimensional space, so equality holds
    flat = sp.Matrix([[float(x) for x in _flat(ad)] for ad in ads])
    assert flat.rank() == 3


def test_derivation_defining_identity_holds():
    # every computed basis derivation satisfies D[x,y] = [Dx,y] + [x,Dy]
    for key in ("heisenberg3", "st3", "mueller_roemer7"):
        g = catalog(key)
        der = derivation_algebra(g)
        for d in der.basis:
            for i in range(g.dim):
                for j in range(i + 1, g.dim):
                    ei, ej = basis_vector(g, i), basis_vector(g, j)
                    lhs = _apply(d, exact_bracket(g, ei, ej))
                    rhs_vec = exact_bracket(g, _apply(d, ei), ej)
                    rhs_vec2 = exact_bracket(g, ei, _apply(d, ej))
                    assert lhs == tuple(a + b for a, b in zip(rhs_vec, rhs_vec2))


def test_inner_derivations_contained_for_catalog():
    for key, alg, _ in _catalog_entries():
        der = derivation_algebra(alg)
        for ad in _inner_derivations(alg):
            assert _contains(der, ad), key


def test_derivation_span_commutator_closed():
    for key in ("heisenberg3", "sl2", "mueller_roemer7", "st2"):
        assert _commutator_closed(derivation_algebra(catalog(key))), key


# -- nil family certificate ----------------------------------------------------


def test_nil_family_trivial_cases():
    zeros = [pairs([[0] * 3] * 3), pairs([[0] * 3] * 3)]
    assert _is_nil_family(zeros, 3)
    assert _is_nil_family([unit(2, 0, 1)], 2)
    assert not _is_nil_family([unit(2, 0, 0)], 2)


def test_nil_family_strict_uppers_flag():
    fam = [unit(3, 0, 1), unit(3, 0, 2), unit(3, 1, 2)]
    flag = engel_flag(fam, 3)
    assert flag is not None
    assert [s.dim for s in flag] == [1, 2, 3]
    # the flag certifies: each matrix maps W_{k+1} into W_k
    chain = [flag[0].__class__.zero(3)] + list(flag)
    for low, high in zip(chain, chain[1:]):
        for m in fam:
            for b in high.basis_vectors():
                assert low.contains(_apply(m, b))


def _brute_force_nil_span(mats, n) -> bool:
    """Grid oracle: nilpotency of sum(t_i D_i) for t_i in {-2..3}."""
    grid = [-2, -1, 0, 1, 2, 3]
    for coeffs in itertools.product(grid, repeat=len(mats)):
        combo = dense(_combination(coeffs, mats))
        power = combo
        for _ in range(n - 1):
            power = _mul(power, combo)
        if any(any(row) for row in power):
            return False
    return True


def test_nil_family_agrees_with_grid_oracle_small():
    rng = random.Random(17)
    cases = []
    # random pairs of strict upper triangular 3x3 and 4x4 (nil spans)
    for n in (3, 4):
        for _ in range(3):
            a = pairs(
                [[rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)]
            )
            b = pairs(
                [[rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)]
            )
            cases.append(([a, b], n))
    # pairs with a visible non-nilpotent member or combination
    cases.append(([unit(3, 0, 1), unit(3, 1, 0)], 3))
    cases.append(([unit(4, 0, 0), unit(4, 1, 2)], 4))
    cases.append(([unit(2, 0, 1), unit(2, 1, 0)], 2))
    for mats, n in cases:
        assert _is_nil_family(mats, n) == _brute_force_nil_span(mats, n)


def test_nil_family_size_mismatch():
    with pytest.raises(ValueError):
        _is_nil_family([unit(2, 0, 1), unit(3, 0, 1)], 2)
    # the right number of rows, but an entry in a column past the ambient dimension
    with pytest.raises(ValueError):
        _is_nil_family([unit(2, 0, 1), ((), ((2, Fraction(1)),))], 2)


def test_find_non_nilpotent():
    w = find_non_nilpotent([unit(3, 0, 1), unit(3, 1, 0)])
    assert w is not None
    assert find_non_nilpotent([unit(3, 0, 1), unit(3, 0, 2)]) is None


def test_find_non_nilpotent_pins_its_combination_witnesses():
    # both units are nilpotent, so the witness is their pair sum
    w = find_non_nilpotent([unit(3, 0, 1), unit(3, 1, 0)])
    assert w == pairs([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    # every unit and every pair sum of the 3-cycle is nilpotent, so the
    # witness is the first seeded combination; the half checks the scaling back
    cycle = [unit(3, 0, 1), unit(3, 1, 2), unit(3, 2, 0, Fraction(1, 2))]
    w = find_non_nilpotent(cycle)
    assert w == pairs([[0, 3, 0], [0, 0, 3], [Fraction(-1, 2), 0, 0]])
    w = find_non_nilpotent(cycle, seed=5)
    assert w == pairs([[0, 1, 0], [0, 0, -1], [1, 0, 0]])


# -- contractibility obstruction ---------------------------------------------------


def test_abelian1_inconclusive_with_identity_witness():
    report = contractibility_obstruction(catalog("abelian", 1))
    assert report.status == "inconclusive"
    assert report.witness is not None
    # the witness is a derivation of the abelian algebra and not nilpotent
    assert not _is_zero(report.witness)


def test_analyze_scales_the_derivation_basis_once(monkeypatch):
    # st(4) fails the Engel flag, so both the flag and the witness search
    # run; they share one scaling of the derivation basis to integer rows
    calls = []
    scale = derivations._integer_basis
    monkeypatch.setattr(derivations, "_integer_basis", lambda mats: calls.append(1) or scale(mats))
    result = invoke(["algebra", "analyze", "catalog:st4"])
    assert result.exit_code == 0
    assert json.loads(result.output)["contractibility_obstruction"]["status"] == "inconclusive"
    assert len(calls) == 1


def test_mueller_roemer_obstructed():
    g = catalog("mueller_roemer7")
    report = contractibility_obstruction(g)
    assert report.status == "obstructed"
    assert report.derivation_dim == 10
    dims = [s.dim for s in report.flag]
    assert dims == sorted(dims) and dims[-1] == 7
    # oracle recheck: each basis derivation is nilpotent as a matrix
    der = derivation_algebra(g)
    for d in der.basis:
        m = sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in row] for row in dense(d)])
        assert (m ** 7).is_zero_matrix


def test_st_prime3_inconclusive_with_grading_witness():
    g = catalog("st_prime", 3)
    report = contractibility_obstruction(g)
    assert report.status == "inconclusive"
    w = report.witness
    assert w is not None
    # the witness really is a derivation and really is non-nilpotent
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            ei, ej = basis_vector(g, i), basis_vector(g, j)
            lhs = _apply(w, exact_bracket(g, ei, ej))
            rhs = tuple(
                a + b for a, b in zip(exact_bracket(g, _apply(w, ei), ej), exact_bracket(g, ei, _apply(w, ej)))
            )
            assert lhs == rhs
    assert not (_sp(w) ** (g.dim + 1)).is_zero_matrix
    # the grading derivation diag(1, 1, 2) in the (E12, E23, E13) basis
    grading = pairs([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert _contains(derivation_algebra(g), grading)


def test_contains_reduces_against_the_derivation_span():
    g = catalog("st3")
    der = derivation_algebra(g)
    assert all(_contains(der, ad) for ad in _inner_derivations(g))
    assert _contains(der, _combination([3, -1], der.basis[:2]))
    # the identity is not a derivation of a non-abelian algebra
    assert not _contains(der, pairs([[int(i == j) for j in range(g.dim)] for i in range(g.dim)]))
    assert _span(der).dim == der.dim


# -- the stopping rules against the full system ---------------------------------
#
# `derivation_algebra` stops eliminating once the rank bound proves the kernel
# is ad(g), or checks the remaining rows against the prefix kernel once the
# elimination stalls on a dense echelon. The oracle solves every equation.

ORACLE_KEYS = ("st3", "st4", "sl2", "sl3", "n4", "st_prime4", "heisenberg5", "heisenberg7", "mr7")
GOLDEN = Path(__file__).parent / "golden"


def _full_system_kernel(g):
    """Kernel of every equation D[e_i, e_j] = [De_i, e_j] + [e_i, De_j],
    written entry by entry from the structure constants."""
    n = g.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                row = Counter()
                for a in range(n):
                    row[k * n + a] += _structure_constant(g, i, j, a)
                    row[a * n + i] -= _structure_constant(g, a, j, k)
                    row[a * n + j] -= _structure_constant(g, i, a, k)
                rows.append(row)
    return nullspace_of_rows(rows, n * n)


def _dense_copy(g, rng):
    """g in the basis f_a = sum_i P[i][a] e_i, for P = L U with unit
    triangular factors, half of whose off-diagonal entries are +-1."""
    n = g.dim
    lower = [[int(i == j) for j in range(n)] for i in range(n)]
    upper = [[int(i == j) for j in range(n)] for i in range(n)]
    below = [(i, j) for i in range(n) for j in range(i)]
    for i, j in rng.sample(below, len(below) // 2):
        lower[i][j] = rng.choice((-1, 1))
    for i, j in rng.sample(below, len(below) // 2):
        upper[j][i] = rng.choice((-1, 1))
    p = _mul(lower, upper)
    cols = [[row[a] for row in p] for a in range(n)]
    brackets = {
        (a, b): dict(enumerate(solve(RatMatrix(p), exact_bracket(g, cols[a], cols[b]))))
        for a in range(n)
        for b in range(a + 1, n)
    }
    return LieAlgebra.create(f"{g.name} dense", [f"F{a + 1}" for a in range(n)], brackets)


def _rescaled(g, scale):
    """g in the basis scale[i] e_i: constants c_ijk scale[i] scale[j] / scale[k]."""
    brackets = {
        pair: {k: c * scale[pair[0]] * scale[pair[1]] / scale[k] for k, c in coeffs}
        for pair, coeffs in g.table
    }
    return LieAlgebra.create(f"{g.name} rescaled", g.basis_names, brackets)


def _assert_full_kernel(g):
    der = derivation_algebra(g)
    full = _full_system_kernel(g)
    assert [_flat(m) for m in der.basis] == full.basis_vectors()
    assert all(_contains(der, ad) for ad in _inner_derivations(g))


@pytest.mark.parametrize("key", ORACLE_KEYS)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_derivations_of_dense_copies_match_the_full_system(key, seed):
    _assert_full_kernel(_dense_copy(catalog(key), random.Random(seed)))


def test_derivations_of_a_rescaled_dense_copy_match_the_full_system():
    g = _dense_copy(catalog("mr7"), random.Random(7))
    _assert_full_kernel(_rescaled(g, [Fraction(k + 2, 2 * k + 3) for k in range(g.dim)]))


@pytest.mark.parametrize("key", ["n5", "heisenberg7", "mr7"])
def test_dense_nilpotent_inputs_cut_the_kernel(key, monkeypatch):
    """The golden dense nilpotent inputs stall on a dense echelon and then
    meet rows that are not zero on the prefix kernel, so the oracle above
    and the golden reports both exercise the kernel cut."""
    cuts = []
    original = derivations._cut

    def spy(kernel, blocks, target):
        out = original(kernel, blocks, target)
        cuts.append((len(kernel), len(out)))
        return out

    monkeypatch.setattr(derivations, "_cut", spy)
    g = from_json_dict(json.loads((GOLDEN / f"{key}_dense.algebra.json").read_text()))
    der = derivation_algebra(g)
    assert len(cuts) == 1 and cuts[0][0] > cuts[0][1] == der.dim


# -- oracles for the sparse exact layer ----------------------------------------------


INVARIANT_KEYS = ("st3", "st4", "st5", "sl2", "sl3", "n4", "n5", "heisenberg5", "heisenberg7", "mr7")


def _invariants(g):
    return (
        g.derived.term_dims,
        g.lower_central.term_dims,
        g.center_space.dim,
        g.derivation_algebra.dim,
        contractibility_obstruction(g).status,
    )


@settings(max_examples=10, deadline=None)
@given(key=st.sampled_from(INVARIANT_KEYS), seed=st.integers(0, 2**32 - 1))
def test_invariants_survive_a_unimodular_change_of_basis(key, seed):
    g = catalog(key)
    assert _invariants(_dense_copy(g, random.Random(seed))) == _invariants(g)


def _unimodular(n, rng):
    """P = L U with unit triangular factors whose off-diagonal entries are in -1..1."""
    lower = [[1 if i == j else rng.randint(-1, 1) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else rng.randint(-1, 1) if j > i else 0 for j in range(n)] for i in range(n)]
    return sp.Matrix(_mul(lower, upper))


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _strict_upper(draw, n):
    return sp.Matrix(n, n, lambda i, j: draw(small_fractions) if j > i else 0)


def _rat(m):
    return pairs([[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)])


@st.composite
def small_matrices(draw):
    """Nilpotent matrices P N P^-1 (N strictly upper, P unimodular), the same
    with one entry changed, and matrices with random entries."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("nilpotent", "perturbed", "random")))
    if kind == "random":
        return sp.Matrix(n, n, lambda i, j: draw(small_fractions))
    p = _unimodular(n, random.Random(draw(st.integers(0, 2**32 - 1))))
    m = p * _strict_upper(draw, n) * p.inv()
    if kind == "perturbed":
        m[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] += draw(small_fractions)
    return m


def _nilpotent(m):
    (rows,), _ = derivations._integer_basis([m])
    return derivations._is_nilpotent_matrix(rows)


@settings(max_examples=150, deadline=None)
@given(small_matrices())
def test_is_nilpotent_matrix_matches_sympy(m):
    assert _nilpotent(_rat(m)) == m.is_nilpotent()


def _sympy_nil_family(mats, n):
    """True iff every product of n of the matrices vanishes: the images
    V_0 = Q^n, V_(k+1) = sum over m of m V_k reach 0 within n steps."""
    space = sp.eye(n)
    for _ in range(n):
        cols = [c for m in mats for c in (m * space).columnspace()]
        if not cols:
            return True
        space = sp.Matrix.hstack(*sp.Matrix.hstack(*cols).columnspace())
    return False


@st.composite
def families(draw):
    """Families of one to three n x n matrices: strictly upper matrices under
    one change of basis (nil), under one change of basis each (mostly not
    nil), or the nil kind with a diagonal entry added to one member."""
    n = draw(st.integers(1, 4))
    size = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("nil", "mixed", "perturbed")))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=size, max_size=size))
    ps = [_unimodular(n, random.Random(s)) for s in (seeds if kind == "mixed" else seeds[:1] * size)]
    mats = [p * _strict_upper(draw, n) * p.inv() for p in ps]
    if kind == "perturbed":
        k = draw(st.integers(0, n - 1))
        mats[0] = mats[0] + ps[0] * sp.Matrix(n, n, lambda i, j: int(i == j == k)) * ps[0].inv()
    return n, mats


@settings(max_examples=100, deadline=None)
@given(families())
def test_engel_flag_matches_sympy_on_random_families(family):
    n, mats = family
    assert (engel_flag([_rat(m) for m in mats], n) is not None) == _sympy_nil_family(mats, n)
