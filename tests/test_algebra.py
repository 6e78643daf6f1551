"""Lie algebra core: brackets, series, centers, predicates, interchange.

Derived values are checked against independent oracles: matrix
commutators via sympy spans, the distance-from-diagonal grading of the
strictly upper triangular algebras, and direct re-expansion of the
Jacobi identity.
"""

import functools
import itertools
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lieactions.algebra import (
    LieAlgebra,
    direct_sum,
    from_json_dict,
    to_json_dict,
)
from lieactions.catalog import (
    _FAMILIES,
    DEFAULT_CATALOG,
    catalog,
    catalog_dimension,
    catalog_matrices,
)
from lieactions.constants import MAX_CATALOG_DIM
from lieactions.linalg import RatMatrix, Subspace
from lieactions.serialize import FormatError

from pair_rows import dense, exact_bracket, pairs, span


# -- oracles ---------------------------------------------------------------


def _flat(m):
    """The entries of a matrix, row by row."""
    return tuple(x for row in dense(m) for x in row)


def _catalog_entries():
    """(key, algebra, description) for every default catalog entry."""
    return [(key, catalog(key), desc) for key, desc in DEFAULT_CATALOG]


def _structure_constant(g, i, j, k):
    """The e_k-coefficient of [e_i, e_j], read from the table."""
    if i > j:
        return -_structure_constant(g, j, i, k)
    return dict(dict(g.table).get((i, j), ())).get(k, Fraction(0))


def _commutator_ideal(g):
    return g.subspace_bracket(g.full_space(), g.full_space())


def _jacobson_consistent(g):
    """Solvability of g matches nilpotency of its commutator ideal [g, g]."""
    ideal_nilpotent = g.lower_central_series_of(_commutator_ideal(g)).length is not None
    return (g.derived_length() is not None) == ideal_nilpotent


def sympy_span_dim(mats, n):
    if not mats:
        return 0
    m = sp.Matrix([[x[i, j] for i in range(n) for j in range(n)] for x in mats])
    return m.rank()


def sympy_derived_length(mats, n):
    """Independent derived series by brute-force commutator spans."""
    term = list(mats)
    length = 0
    while sympy_span_dim(term, n) > 0:
        brs = [a * b - b * a for a, b in itertools.combinations(term, 2)]
        m = sp.Matrix([[x[i, j] for i in range(n) for j in range(n)] for x in brs]) if brs else sp.zeros(0, n * n)
        rref, piv = m.rref()
        new = [sp.Matrix(n, n, list(rref.row(k))) for k in range(len(piv))]
        if sympy_span_dim(new, n) == sympy_span_dim(term, n):
            return None
        term = new
        length += 1
    return length


def to_sympy(m) -> sp.Matrix:
    return sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in row] for row in dense(m)])


def corrupted_h3() -> LieAlgebra:
    """Heisenberg with an extra [e1, e3] = e1 bracket; Jacobi fails."""
    return LieAlgebra.create(
        "bad_h3",
        ["E1", "E2", "E3"],
        {(0, 1): {2: 1}, (0, 2): {0: 1}},
    )


# -- bracket ----------------------------------------------------------------


def test_bracket_of_vector_with_itself_is_zero():
    g = catalog("mueller_roemer7")
    rng = random.Random(3)
    for _ in range(10):
        x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(7)]
        assert all(c == 0 for c in exact_bracket(g, x, x))


def test_heisenberg_defining_relation():
    h3 = catalog("heisenberg3")
    assert exact_bracket(h3, [1, 0, 0], [0, 1, 0]) == (0, 0, 1)


def test_st2_bracket_matches_matrix_commutator():
    g = catalog("st2")
    mats = catalog_matrices("st2")
    # oracle: [H, E] as 2x2 matrices
    comm = to_sympy(mats[0]) * to_sympy(mats[1]) - to_sympy(mats[1]) * to_sympy(mats[0])
    assert comm == 2 * to_sympy(mats[1])
    assert exact_bracket(g, [1, 0], [0, 1]) == (0, 2)


def test_bracket_length_mismatch():
    with pytest.raises(ValueError):
        exact_bracket(catalog("st2"), [1], [0, 1])


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=5, max_size=5), st.lists(st.integers(-3, 3), min_size=5, max_size=5))
def test_bracket_antisymmetry_property(x, y):
    g = catalog("st3")
    xy = exact_bracket(g, x, y)
    yx = exact_bracket(g, y, x)
    assert all(a == -b for a, b in zip(xy, yx))


# -- jacobi -----------------------------------------------------------------


def test_abelian_jacobi_empty():
    assert catalog("abelian", 4).jacobi_check() == []


def test_mueller_roemer_jacobi_against_reexpansion():
    g = catalog("mueller_roemer7")
    assert g.jacobi_check() == []
    # independent brute-force re-expansion straight from structure constants
    n = g.dim
    c = functools.partial(_structure_constant, g)
    for i, j, k in itertools.combinations(range(n), 3):
        for m in range(n):
            total = Fraction(0)
            for a in range(n):
                total += c(i, j, a) * c(a, k, m)
                total += c(j, k, a) * c(a, i, m)
                total += c(k, i, a) * c(a, j, m)
            assert total == 0, (i, j, k, m)


def test_corrupted_h3_fails_jacobi():
    bad = corrupted_h3()
    violations = bad.jacobi_check()
    assert (0, 1, 2) in violations



def brute_force_jacobi(g):
    """Triples whose Jacobi sum is nonzero, from every structure constant."""
    n, c = g.dim, functools.partial(_structure_constant, g)
    return [
        (i, j, k)
        for i, j, k in itertools.combinations(range(n), 3)
        if any(
            sum(c(i, j, a) * c(a, k, m) + c(j, k, a) * c(a, i, m) + c(k, i, a) * c(a, j, m) for a in range(n))
            for m in range(n)
        )
    ]


@st.composite
def bracket_tables(draw):
    """A catalog algebra with up to three structure constants overwritten:
    valid tables, where every Jacobi sum cancels, and near misses."""
    base = catalog(draw(st.sampled_from(["heisenberg3", "st3", "sl2", "n3", "t3", "st_prime4"])))
    brackets = {pair: dict(coeffs) for pair, coeffs in base.table}
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, base.dim - 2))
        j = draw(st.integers(i + 1, base.dim - 1))
        k = draw(st.integers(0, base.dim - 1))
        brackets.setdefault((i, j), {})[k] = draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
    return LieAlgebra.create(base.name, base.basis_names, brackets)


@settings(max_examples=100, deadline=None)
@given(bracket_tables())
def test_jacobi_check_matches_brute_force(g):
    assert g.jacobi_check() == brute_force_jacobi(g)


# -- subspace bracket ---------------------------------------------------------


def test_subspace_bracket_with_zero():
    g = catalog("st3")
    zero = Subspace.zero(g.dim)
    assert g.subspace_bracket(zero, g.full_space()).dim == 0


def test_h3_commutator_ideal():
    h3 = catalog("heisenberg3")
    ideal = _commutator_ideal(h3)
    assert ideal == span([[0, 0, 1]], 3)


def test_st4_nilradical_bracket_matches_matrix_oracle():
    g = catalog("st4")
    mats = catalog_matrices("st4")
    # n = strict uppers: indices 3..8 in the catalog layout
    upper_indices = list(range(3, 9))
    nil = span(
        [[Fraction(int(i == k)) for i in range(g.dim)] for k in upper_indices], g.dim
    )
    result = g.subspace_bracket(nil, nil)
    assert result.dim == 3
    # oracle: span of pairwise matrix commutators has dimension 3 and
    # consists of matrices supported at distance >= 2 from the diagonal
    sym = [to_sympy(mats[k]) for k in upper_indices]
    brs = [a * b - b * a for a, b in itertools.combinations(sym, 2)]
    assert sympy_span_dim(brs, 4) == 3
    for m in brs:
        for i in range(4):
            for j in range(4):
                if j - i < 2:
                    assert m[i, j] == 0


# -- series -------------------------------------------------------------------


def test_abelian_series():
    g = catalog("abelian", 3)
    assert g.derived_length() == 1
    assert g.nilpotency_class() == 1


def test_st_derived_lengths_against_sympy_oracle():
    expected = {2: 2, 3: 3, 4: 3, 5: 4, 6: 4}
    for m, want in expected.items():
        mats = [to_sympy(x) for x in catalog_matrices("st", m)]
        assert sympy_derived_length(mats, m) == want
        assert catalog("st", m).derived_length() == want


def test_derived_series_terms_decrease_and_are_ideals():
    for key in ("st3", "st4", "mueller_roemer7", "sl2", "t3"):
        g = catalog(key)
        series = g.derived_series()
        for a, b in zip(series.terms, series.terms[1:]):
            assert a.contains_subspace(b)
        for term in series.terms:  # [g, term] lies in term
            assert term.contains_subspace(g.subspace_bracket(g.full_space(), term))


def test_sl2_is_perfect():
    g = catalog("sl2")
    assert g.derived_length() is None
    assert _commutator_ideal(g) == g.full_space()
    # oracle: commutators of the matrix basis span all of sl2
    mats = [to_sympy(m) for m in catalog_matrices("sl2")]
    brs = [a * b - b * a for a, b in itertools.combinations(mats, 2)]
    assert sympy_span_dim(brs, 2) == 3


def test_nilpotency_class_grading_oracle():
    for m in range(2, 7):
        g = catalog("st_prime", m)
        # grading oracle: lower-central term j is the span of basis
        # elements at distance > j from the diagonal
        series = g.lower_central_series()
        dims = series.term_dims
        expected_dims = []
        j = 0
        while True:
            d = sum(max(0, m - dist) for dist in range(j + 1, m))
            expected_dims.append(d)
            if d == 0:
                break
            j += 1
        assert list(dims) == expected_dims
        assert g.nilpotency_class() == m - 1


def test_st2_solvable_not_nilpotent():
    g = catalog("st2")
    assert g.derived_length() == 2
    assert g.nilpotency_class() is None
    report = g.lower_central_series()
    assert report.stabilized and report.length is None
    # [H, E] = 2E keeps span(E) forever
    assert report.terms[-1] == span([[0, 1]], 2)


# -- center --------------------------------------------------------------------


def test_center_abelian_full():
    g = catalog("abelian", 3)
    assert g.center() == g.full_space()


def test_center_h3():
    assert catalog("heisenberg3").center() == span([[0, 0, 1]], 3)


def test_center_n3_dim2_sympy_oracle():
    g = catalog("n3")
    center = g.center()
    assert center.dim == 2
    # oracle: kernel of the stacked ad constraints, built independently
    rows = []
    for j in range(g.dim):
        for k in range(g.dim):
            rows.append([_structure_constant(g, i, j, k) for i in range(g.dim)])
    m = sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in row] for row in rows])
    assert len(m.nullspace()) == 2


def _center_cases():
    """Catalog algebras, and the golden inputs in dense and scaled bases,
    where a row of the center system mixes both orders of the bracket."""
    golden = Path(__file__).parent / "golden"
    algebras = [catalog(key) for key in ("n3", "n5", "heisenberg7", "mr7", "st4")]
    algebras += [from_json_dict(json.loads((golden / f"{stem}.algebra.json").read_text()))
                 for stem in ("st4_dense", "n5_dense", "heisenberg7_dense", "mr7_dense", "n5_scaled")]
    return [pytest.param(g, id=g.name) for g in algebras]


@pytest.mark.parametrize("g", _center_cases())
def test_center_is_the_sympy_kernel_of_the_table(g):
    rows = [[_structure_constant(g, i, j, k) for i in range(g.dim)] for j in range(g.dim) for k in range(g.dim)]
    kernel = sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in row] for row in rows]).nullspace()
    assert g.center() == span([[Fraction(int(x.p), int(x.q)) for x in v] for v in kernel], g.dim)


# -- predicates -------------------------------------------------------------------


def test_predicates_examples():
    assert catalog("heisenberg3").predicates().is_solvable
    assert catalog("heisenberg3").predicates().is_nilpotent
    st3 = catalog("st3").predicates()
    assert st3.is_solvable and not st3.is_nilpotent
    sl2 = catalog("sl2").predicates()
    assert not sl2.is_solvable and not sl2.is_nilpotent


def test_jacobson_equivalence_on_catalog():
    for key, alg, _ in _catalog_entries():
        assert _jacobson_consistent(alg), key


def test_derived_length_bounded_by_class():
    for key, alg, _ in _catalog_entries():
        length = alg.derived_length()
        cls = alg.nilpotency_class()
        if length is not None and cls is not None:
            assert length <= cls, key


# -- direct sum ---------------------------------------------------------------------


def test_direct_sum_with_zero():
    g = catalog("st3")
    s = direct_sum(g, catalog("abelian", 0))
    assert s.dim == g.dim
    assert s.table == g.table


def test_direct_sum_abelian():
    s = direct_sum(catalog("abelian", 1), catalog("abelian", 1))
    assert s.dim == 2 and s.derived_length() == 1


def test_direct_sum_invariants():
    g = catalog("st_prime", 3)
    h = catalog("abelian", 1)
    s = direct_sum(g, h, name="N(3)")
    assert s.center().dim == 2
    assert s.derived_length() == g.derived_length()
    # center of a sum is the sum of the centers
    cg = g.center()
    lifted = [list(b) + [Fraction(0)] for b in cg.basis_vectors()] + [[0, 0, 0, 1]]
    assert s.center() == span(lifted, 4)


def test_direct_sum_max_derived_length():
    a = catalog("st3")
    b = catalog("st2")
    assert direct_sum(a, b).derived_length() == max(a.derived_length(), b.derived_length())


# -- catalog ------------------------------------------------------------------------


def test_catalog_dimensions():
    assert catalog("abelian", 3).dim == 3
    assert catalog("st", 2).dim == 2  # n(n+1)/2 - 1
    assert catalog("st", 5).dim == 14
    assert catalog("sl", 3).dim == 8
    assert catalog("t", 3).dim == 6
    assert catalog("d", 4).dim == 4
    assert catalog("heisenberg", 5).dim == 5
    assert catalog("N", 3).dim == 4
    assert catalog("mueller_roemer7").dim == 7
    assert catalog("st_c", 2).dim == 4
    assert catalog("sl_c", 2).dim == 6


@pytest.mark.parametrize(
    "family,params",
    [("abelian", (0, 2, 4)), ("heisenberg", (3, 5, 7)), ("t", (2, 3, 4)), ("st", (2, 3, 4)),
     ("st_prime", (2, 3, 4)), ("sl", (2, 3)), ("d", (1, 3)), ("N", (2, 3, 4)), ("n", (3,)),
     ("st_c", (2, 3)), ("sl_c", (2,)), ("mueller_roemer", (7,)), ("mr", (7,))],
)
def test_catalog_dimension_formulas_match_the_built_algebras(family, params):
    for param in params:
        assert catalog_dimension(family, param) == catalog(family, param).dim
        assert catalog_dimension(f"{family}{param}") == catalog(family, param).dim


def test_catalog_bound_admits_the_size_ladders():
    # the largest keys the tests, golden reports and benchmark use
    for key, dim in (("st8", 35), ("sl5", 24), ("n7", 22), ("heisenberg11", 11)):
        assert catalog_dimension(key) == dim <= MAX_CATALOG_DIM
    with pytest.raises(ValueError, match="above the bound"):
        catalog("st", 9)


def test_catalog_keys_parse():
    assert catalog("st3").name == "st(3)"
    assert catalog("mr7").name == "mueller_roemer7"
    assert catalog("n4").name == "N(4)"


# (catalog arguments, exception type, the whole message)
BAD_CATALOG_INPUT = [
    (("st", 1), ValueError, "st(n) needs n >= 2"),
    (("ST0",), ValueError, "st(n) needs n >= 2"),
    (("D0",), ValueError, "d(n) needs n >= 1"),
    (("st_prime1",), ValueError, "st_prime(n) needs n >= 2"),
    (("N1",), ValueError, "N(n) needs n >= 2"),
    (("Sl_C1",), ValueError, "sl(n) needs n >= 2"),
    (("heisenberg", 4), ValueError, "heisenberg dimension must be odd and >= 3"),
    (("heisenberg4",), ValueError, "heisenberg dimension must be odd and >= 3"),
    (("abelian",), ValueError, "catalog family 'abelian' needs a size parameter"),
    (("nosuch", 3), ValueError, "unknown catalog family 'nosuch'"),
    (("nosuch3",), ValueError, "unknown catalog family 'nosuch'"),
    # the family is checked before the size: these name none, and give none
    (("nosuch",), ValueError, "unknown catalog family 'nosuch'"),
    (("mrx",), ValueError, "unknown catalog family 'mrx'"),
    (("nosuch-3",), ValueError, "unknown catalog family 'nosuch'"),
    (("x" * 10**5,), ValueError, f"unknown catalog family '{'x' * 99}..."),
    (("",), ValueError, "unknown catalog key ''"),
    (("mr3",), ValueError, "catalog family 'mueller_roemer' has the one size 7 (mueller_roemer7, mr7)"),
    (("mr",), ValueError, "catalog family 'mueller_roemer' has the one size 7 (mueller_roemer7, mr7)"),
    (("mueller_roemer99",), ValueError, "catalog family 'mueller_roemer' has the one size 7 (mueller_roemer7, mr7)"),
    (("mueller_roemer", 8), ValueError, "catalog family 'mueller_roemer' has the one size 7 (mueller_roemer7, mr7)"),
    (("Sl_C11",), FormatError,
     "catalog family 'Sl_C' with parameter 11 has dimension 240, above the bound 40"),
    # the size is ASCII digits, and the key has no space around it
    (("st\uff13",), FormatError,
     "the size of catalog family 'st' must be a nonnegative integer in ASCII digits, got '\uff13'"),
    ((" st3",), ValueError, "unknown catalog key ' st3'"),
    (("st3 ",), FormatError, "the size of catalog family 'st' must be a nonnegative integer in ASCII digits, got '3 '"),
]


def test_catalog_rejects_bad_input():
    for args, error, text in BAD_CATALOG_INPUT:
        with pytest.raises(error, match=f"^{re.escape(text)}$"):
            catalog(*args)


# every family, as a key may spell it
KEY_FAMILIES = sorted(_FAMILIES) + ["N", "mr"]
CASES = {"as-is": str, "lower": str.lower, "upper": str.upper, "title": str.title, "swapcase": str.swapcase}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(KEY_FAMILIES), st.sampled_from(["", "_", "__"]), st.none() | st.integers(0, 45),
       st.sampled_from(sorted(CASES)))
def test_catalog_key_builds_what_it_names_or_is_an_input_error(family, separator, size, case):
    key = CASES[case](family + separator + ("" if size is None else str(size)))
    try:
        named = catalog(family, size)
    except ValueError:  # FormatError too: a size above the bound
        named = None
    try:
        built = catalog(key)
    except ValueError:
        built = None
    assert built == named, key


def test_catalog_keys_with_underscores():
    for key, name in (("st_3", "st(3)"), ("st__3", "st(3)"), ("N_4", "N(4)"), ("sl_c_2", "sl_c(2)"),
                      ("mueller_roemer_7", "mueller_roemer7"), ("MR7", "mueller_roemer7")):
        assert catalog(key).name == name, key


# every sized family at its two smallest sizes, and a few larger ones
@pytest.mark.parametrize(
    "family,param",
    [(family, param) for family, low in (("abelian", 0), ("heisenberg", 3), ("t", 2), ("st", 2), ("st_prime", 2),
                                         ("sl", 2), ("d", 1), ("N", 2), ("st_c", 2), ("sl_c", 2))
     for param in (low, low + 2 if family == "heisenberg" else low + 1)]
    + [("heisenberg", 11), ("st_c", 3), ("sl_c", 3), ("N", 6)],
)
def test_catalog_algebras_satisfy_jacobi(family, param):
    assert catalog(family, param).jacobi_check() == []


def test_realified_sl2_is_perfect_and_valid():
    g = catalog("sl_c", 2)
    assert g.jacobi_check() == []
    assert g.derived_length() is None
    assert _commutator_ideal(g).dim == 6


# -- JSON interchange -----------------------------------------------------------------


def test_json_round_trip():
    for key in ("st3", "mueller_roemer7", "heisenberg3", "sl2"):
        g = catalog(key)
        assert from_json_dict(to_json_dict(g)) == g


def test_json_rejects_bad_pairs():
    g = to_json_dict(catalog("heisenberg3"))
    bad = dict(g)
    bad["brackets"] = [{"i": 2, "j": 1, "result": {"3": "1/1"}}]
    with pytest.raises(FormatError):
        from_json_dict(bad)
    bad["brackets"] = [{"i": 1, "j": 4, "result": {"3": "1/1"}}]
    with pytest.raises(FormatError):
        from_json_dict(bad)
    bad["brackets"] = [{"i": 1, "j": 2, "result": {"5": "1/1"}}]
    with pytest.raises(FormatError):
        from_json_dict(bad)


def test_json_rejects_malformed_rationals():
    g = to_json_dict(catalog("heisenberg3"))
    for bad_value in ("1.5", "a/b", "1/0", "2/-3", ""):
        doc = dict(g)
        doc["brackets"] = [{"i": 1, "j": 2, "result": {"3": bad_value}}]
        with pytest.raises(FormatError):
            from_json_dict(doc)


def test_json_rejects_duplicates_and_bad_shape():
    g = to_json_dict(catalog("heisenberg3"))
    doc = dict(g)
    doc["brackets"] = [
        {"i": 1, "j": 2, "result": {"3": "1/1"}},
        {"i": 1, "j": 2, "result": {"3": "2/1"}},
    ]
    with pytest.raises(FormatError):
        from_json_dict(doc)
    with pytest.raises(FormatError):
        from_json_dict({"name": "x", "dim": 2, "basis": ["a"]})
    with pytest.raises(FormatError):
        from_json_dict([1, 2, 3])


def test_json_dim_bound():
    def doc(dim):
        return {"name": "big", "dim": dim, "basis": [f"e{k}" for k in range(dim)], "brackets": []}

    assert from_json_dict(doc(MAX_CATALOG_DIM)).dim == MAX_CATALOG_DIM == 40
    with pytest.raises(FormatError, match="above the bound 40"):
        from_json_dict(doc(MAX_CATALOG_DIM + 1))
    # the bound is checked before the brackets are read
    with pytest.raises(FormatError, match="above the bound 40"):
        from_json_dict({**doc(41), "brackets": [{"i": 1, "j": 2, "result": {"3": "x"}}]})


def test_json_reads_any_mapping():
    from types import MappingProxyType

    doc = to_json_dict(catalog("st3"))
    proxied = MappingProxyType({
        **doc,
        "brackets": [MappingProxyType({**b, "result": MappingProxyType(b["result"])}) for b in doc["brackets"]],
    })
    assert to_json_dict(from_json_dict(proxied)) == doc


def test_json_accepts_corrupted_algebra_without_validation():
    bad = corrupted_h3()
    doc = to_json_dict(bad)
    parsed = from_json_dict(doc)
    assert parsed.jacobi_check() != []


# -- factor-once coordinates and per-algebra caches -------------------------------


@pytest.mark.parametrize("key", ["st4", "sl3"])
def test_from_matrix_basis_matches_per_pair_solve(key):
    from lieactions.linalg import solve

    mats = catalog_matrices(key)
    coord_solver = RatMatrix(list(zip(*(_flat(m) for m in mats))))
    want = {}
    for i, j in itertools.combinations(range(len(mats)), 2):
        a, b = to_sympy(mats[i]), to_sympy(mats[j])
        coords = solve(coord_solver, [Fraction(int(x.p), int(x.q)) for x in a * b - b * a])
        if any(coords):
            want[(i, j)] = tuple((k, c) for k, c in enumerate(coords) if c)
    g = LieAlgebra.from_matrix_basis(key, [f"X{i}" for i in range(len(mats))], mats)
    assert dict(g.table) == want


@pytest.mark.parametrize("family", ["t", "st", "sl", "st_prime", "d"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_from_matrix_basis_matches_sympy_commutators(family, n):
    """[M_i, M_j] = sum_k c_ij^k M_k in sympy, for every pair of the matrix
    basis; the basis is independent, so the coordinates are unique."""
    g = catalog(family, n)
    mats = [to_sympy(m) for m in catalog_matrices(family, n)]
    assert sp.Matrix([list(m) for m in mats]).rank() == g.dim == len(mats)
    for i, j in itertools.combinations(range(g.dim), 2):
        total = sp.zeros(n, n)
        for k in range(g.dim):
            c = _structure_constant(g, i, j, k)
            if c:
                total += sp.Rational(c.numerator, c.denominator) * mats[k]
        assert total == mats[i] * mats[j] - mats[j] * mats[i], (i, j)


def test_from_matrix_basis_rejects_dependent_and_open_families():
    mats = catalog_matrices("st3")
    doubled = pairs([[2 * x for x in row] for row in dense(mats[0])])
    with pytest.raises(ValueError, match="dependent"):
        LieAlgebra.from_matrix_basis("dep", ["a", "b"], [mats[0], doubled])
    # E12 and E21 bracket to a diagonal matrix outside their span
    e12, e21 = pairs([[0, 1], [0, 0]]), pairs([[0, 0], [1, 0]])
    with pytest.raises(ValueError, match="leaves the span"):
        LieAlgebra.from_matrix_basis("open", ["e", "f"], [e12, e21])


def test_catalog_is_memoised_and_immutable():
    assert catalog("st4") is catalog("st4")
    assert isinstance(catalog_matrices("st4"), tuple)
    assert catalog_matrices("heisenberg5") is None


def test_invariants_are_computed_once_per_algebra(monkeypatch):
    g = catalog("n5")
    fresh = LieAlgebra(g.name, g.dim, g.basis_names, g.table)
    calls = []
    for name in ("derived_series", "lower_central_series", "center"):
        original = getattr(LieAlgebra, name)
        monkeypatch.setattr(
            LieAlgebra, name, lambda self, _o=original, _n=name: calls.append(_n) or _o(self)
        )
    for _ in range(3):
        fresh.derived_length(), fresh.nilpotency_class(), fresh.predicates(), fresh.center_space
    assert sorted(calls) == ["center", "derived_series", "lower_central_series"]
    assert fresh.derived == g.derived_series() and fresh.center_space == g.center()
    assert fresh.derivation_algebra is fresh.derivation_algebra


# -- the compiled brackets against the plain sums ------------------------------------


def _rescaled(g, scale):
    """g in the basis scale[i] e_i: constants c_ijk scale[i] scale[j] / scale[k]."""
    brackets = {
        pair: {k: c * scale[pair[0]] * scale[pair[1]] / scale[k] for k, c in coeffs}
        for pair, coeffs in g.table
    }
    return LieAlgebra.create(f"{g.name} rescaled", g.basis_names, brackets)


def _bracket_cases():
    """Every DEFAULT_CATALOG algebra, st(4) in a dense unimodular basis, and
    st(4) in a rescaled basis (constants with denominators)."""
    dense = Path(__file__).parent / "golden" / "st4_dense.algebra.json"
    algebras = [catalog(key) for key, _ in DEFAULT_CATALOG]
    algebras.append(from_json_dict(json.loads(dense.read_text())))
    algebras.append(_rescaled(catalog("st4"), [Fraction(k + 2, 2 * k + 3) for k in range(9)]))
    return [pytest.param(g, id=g.name) for g in algebras]


def _reference_bracket_numeric(g, x, y):
    """A loop over every pair i < j and every target k of the dense structure constants."""
    out = [0.0] * g.dim
    for i, j in itertools.combinations(range(g.dim), 2):
        s = x[i] * y[j] - x[j] * y[i]
        if s:
            for k in range(g.dim):
                c = _structure_constant(g, i, j, k)
                if c:
                    out[k] += s * float(c)
    return out


def _reference_bracket(g, x, y):
    """sum_{i,j} x_i y_j [e_i, e_j] as a plain Fraction sum."""
    out = [Fraction(0)] * g.dim
    for i in range(g.dim):
        for j in range(g.dim):
            for k in range(g.dim):
                out[k] += Fraction(x[i]) * Fraction(y[j]) * _structure_constant(g, i, j, k)
    return tuple(out)


@pytest.mark.parametrize("g", _bracket_cases())
def test_bracket_numeric_matches_dense_loop(g):
    rng = random.Random(g.dim)
    for _ in range(40):
        # some exact zeros, so that the skipped pairs are exercised too
        x = [rng.choice([0.0, rng.uniform(-3, 3)]) for _ in range(g.dim)]
        y = [rng.choice([0.0, rng.uniform(-3, 3)]) for _ in range(g.dim)]
        assert g.bracket_numeric(x, y) == _reference_bracket_numeric(g, x, y)


@pytest.mark.parametrize("g", _bracket_cases())
def test_bracket_matches_fraction_sum(g):
    rng = random.Random(g.dim)
    for _ in range(10):
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) * rng.randint(0, 1) for _ in range(g.dim)]
        y = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(g.dim)]
        got = exact_bracket(g, x, y)
        assert got == _reference_bracket(g, x, y)
        assert all(type(c) is Fraction for c in got)
    ints = list(range(g.dim))
    assert exact_bracket(g, ints, ints[::-1]) == _reference_bracket(g, ints, ints[::-1])


def _kernel_cases():
    """`_bracket_cases`, and the other seeded random-basis copies of the golden inputs."""
    golden = Path(__file__).parent / "golden"
    copies = [from_json_dict(json.loads((golden / f"{key}_dense.algebra.json").read_text()))
              for key in ("n5", "heisenberg7", "mr7")]
    return _bracket_cases() + [pytest.param(g, id=g.name) for g in copies]


# coordinates the float kernel must treat as the loop does: signed zeros, values
# whose products overflow or underflow, infinities and NaN
SPECIAL = [0.0, -0.0, 1e-300, -1e300, 1.7e308, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("g", _kernel_cases())
def test_compiled_bracket_numeric_matches_the_loop_by_repr(g):
    # repr tells -0.0 from 0.0 and sees NaN, which == does not
    rng = random.Random(g.dim + 1)
    for trial in range(60):
        special = SPECIAL if trial % 3 == 0 else [0.0]
        x = [rng.choice([*special, rng.uniform(-3, 3)]) for _ in range(g.dim)]
        y = [rng.choice([*special, rng.uniform(-3, 3)]) for _ in range(g.dim)]
        got = g.bracket_numeric(x, y)
        assert type(got) is list and all(type(v) is float for v in got)
        assert list(map(repr, got)) == list(map(repr, _reference_bracket_numeric(g, x, y)))


@pytest.mark.parametrize("g", _kernel_cases())
def test_integer_kernel_matches_the_sparse_bracket(g):
    rng = random.Random(g.dim + 2)
    for _ in range(30):
        # some zeros, and entries far beyond 64 bits
        x = [rng.choice([0, rng.randint(-9, 9), rng.randint(-10**30, 10**30)]) for _ in range(g.dim)]
        y = [rng.choice([0, rng.randint(-9, 9)]) for _ in range(g.dim)]
        got = g._integer_kernel(x, y)
        want = g._bracket({k: v for k, v in enumerate(x) if v}, {k: v for k, v in enumerate(y) if v})
        assert all(type(v) is int for v in got)
        assert got == [want.get(k, 0) for k in range(g.dim)]


def test_compiled_brackets_check_the_length():
    g = catalog("st3")
    with pytest.raises(ValueError):
        g.bracket_numeric([1.0] * 4, [1.0] * 5)
    with pytest.raises(ValueError):
        g._integer_kernel([1] * 5, [1] * 6)
    assert catalog("abelian", 1).bracket_numeric([2.0], [3.0]) == [0.0]
