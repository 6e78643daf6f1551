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
from lieactions.catalog import catalog, catalog_entries
from lieactions.derivations import (
    contractibility_obstruction,
    derivation_algebra,
    engel_flag,
    find_non_nilpotent,
)
from lieactions.linalg import RatMatrix, nullspace_of_rows, solve


def unit(n, i, j, val=1):
    rows = [[Fraction(0)] * n for _ in range(n)]
    rows[i][j] = Fraction(val)
    return RatMatrix(rows)


def _inner_derivations(g):
    """The ad matrices of the basis vectors."""
    return [g.ad_matrix(g.basis_vector(i)) for i in range(g.dim)]


def _is_nil_family(mats, ambient_dim):
    """True iff every element of the linear span of mats is nilpotent."""
    return engel_flag(list(mats), ambient_dim) is not None


def _commutator_closed(der):
    """True iff the derivation span is closed under the matrix commutator."""
    return all(der.contains(a.commutator(b)) for a, b in itertools.combinations(der.basis, 2))


def test_derivations_of_abelian_are_all_matrices():
    for m in (2, 3):
        assert derivation_algebra(catalog("abelian", m)).dim == m * m


def test_derivations_of_sl2_are_inner():
    g = catalog("sl2")
    der = derivation_algebra(g)
    assert der.dim == 3
    ads = _inner_derivations(g)
    for ad in ads:
        assert der.contains(ad)
    # oracle: the ad images span a 3-dimensional space, so equality holds
    flat = sp.Matrix([[float(x) for x in ad.flat()] for ad in ads])
    assert flat.rank() == 3


def test_derivation_defining_identity_holds():
    # every computed basis derivation satisfies D[x,y] = [Dx,y] + [x,Dy]
    for key in ("heisenberg3", "st3", "mueller_roemer7"):
        g = catalog(key)
        der = derivation_algebra(g)
        for d in der.basis:
            for i in range(g.dim):
                for j in range(i + 1, g.dim):
                    ei, ej = g.basis_vector(i), g.basis_vector(j)
                    lhs = d.apply(g.bracket(ei, ej))
                    rhs_vec = g.bracket(d.apply(ei), ej)
                    rhs_vec2 = g.bracket(ei, d.apply(ej))
                    assert lhs == tuple(a + b for a, b in zip(rhs_vec, rhs_vec2))


def test_inner_derivations_contained_for_catalog():
    for key, alg, _ in catalog_entries():
        der = derivation_algebra(alg)
        for ad in _inner_derivations(alg):
            assert der.contains(ad), key


def test_derivation_span_commutator_closed():
    for key in ("heisenberg3", "sl2", "mueller_roemer7", "st2"):
        assert _commutator_closed(derivation_algebra(catalog(key))), key


# -- nil family certificate ----------------------------------------------------


def test_nil_family_trivial_cases():
    zeros = [RatMatrix.zeros(3, 3), RatMatrix.zeros(3, 3)]
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
                assert low.contains(m.apply(b))


def _brute_force_nil_span(mats, n) -> bool:
    """Grid oracle: nilpotency of sum(t_i D_i) for t_i in {-2..3}."""
    grid = [-2, -1, 0, 1, 2, 3]
    for coeffs in itertools.product(grid, repeat=len(mats)):
        combo = RatMatrix.zeros(n, n)
        for c, m in zip(coeffs, mats):
            if c:
                combo = combo + m.scale(c)
        power = combo
        for _ in range(n - 1):
            power = power @ combo
        if not power.is_zero():
            return False
    return True


def test_nil_family_agrees_with_grid_oracle_small():
    rng = random.Random(17)
    cases = []
    # random pairs of strict upper triangular 3x3 and 4x4 (nil spans)
    for n in (3, 4):
        for _ in range(3):
            a = RatMatrix(
                [[rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)]
            )
            b = RatMatrix(
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


def test_find_non_nilpotent():
    w = find_non_nilpotent([unit(3, 0, 1), unit(3, 1, 0)])
    assert w is not None
    assert find_non_nilpotent([unit(3, 0, 1), unit(3, 0, 2)]) is None


# -- contractibility obstruction ---------------------------------------------------


def test_abelian1_inconclusive_with_identity_witness():
    report = contractibility_obstruction(catalog("abelian", 1))
    assert report.status == "inconclusive"
    assert report.witness is not None
    # the witness is a derivation of the abelian algebra and not nilpotent
    assert not report.witness.is_zero()


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
        m = sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in d.row(i)] for i in range(7)])
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
            ei, ej = g.basis_vector(i), g.basis_vector(j)
            lhs = w.apply(g.bracket(ei, ej))
            rhs = tuple(
                a + b for a, b in zip(g.bracket(w.apply(ei), ej), g.bracket(ei, w.apply(ej)))
            )
            assert lhs == rhs
    power = w
    for _ in range(g.dim):
        power = power @ w
    assert not power.is_zero()
    # the grading derivation diag(1, 1, 2) in the (E12, E23, E13) basis
    grading = RatMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert derivation_algebra(g).contains(grading)


def test_obstructed_algebra_has_no_constructed_contraction():
    # consistency gate: the obstructed algebra is not among the families
    # the contraction constructors accept
    report = contractibility_obstruction(catalog("mueller_roemer7"))
    assert report.obstructed


def test_contains_reduces_against_the_derivation_span():
    g = catalog("st3")
    der = derivation_algebra(g)
    assert all(der.contains(ad) for ad in _inner_derivations(g))
    assert der.contains(der.basis[0].scale(3) - der.basis[1])
    # the identity is not a derivation of a non-abelian algebra
    assert not der.contains(RatMatrix.identity(g.dim))
    assert der.span.dim == der.dim


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
                    row[k * n + a] += g.structure_constant(i, j, a)
                    row[a * n + i] -= g.structure_constant(a, j, k)
                    row[a * n + j] -= g.structure_constant(i, a, k)
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
    p = RatMatrix(lower) @ RatMatrix(upper)
    cols = [p.column(a) for a in range(n)]
    brackets = {
        (a, b): solve(p, g.bracket(cols[a], cols[b])) for a in range(n) for b in range(a + 1, n)
    }
    return LieAlgebra.create(f"{g.name} dense", [f"F{a + 1}" for a in range(n)], brackets)


def _rescaled(g, scale):
    """g in the basis scale[i] e_i: constants c_ijk scale[i] scale[j] / scale[k]."""
    brackets = {
        pair: {k: c * scale[pair[0]] * scale[pair[1]] / scale[k] for k, c in coeffs}
        for pair, coeffs in g.sparse_table.items()
    }
    return LieAlgebra.create(f"{g.name} rescaled", g.basis_names, brackets)


def _assert_full_kernel(g):
    der = derivation_algebra(g)
    full = _full_system_kernel(g)
    assert [m.flat() for m in der.basis] == full.basis_vectors()
    assert all(der.contains(ad) for ad in _inner_derivations(g))


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
