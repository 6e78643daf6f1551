"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Derived expectations are recomputed here by independent oracles (sympy
spans, the diagonal-distance grading, direct re-expansion) before being
compared with the library.
"""

import functools
import itertools
import json
import math
import os
from fractions import Fraction

import numpy as np
import sympy as sp

from lieactions.actions import (
    CoverElement,
    MultiBall,
    cover_compose,
    cover_eval,
    interval_action,
    make_ball_action,
    verify_action,
)
from lieactions.algebra import direct_sum
from lieactions.catalog import DEFAULT_CATALOG, catalog, catalog_matrices, convention_notes
from lieactions.deformations import (
    bump_group_deformation,
    concatenate,
    diag_contraction,
    smooth_step,
    st_deformation,
    verify_deformation,
)
from lieactions.derivations import (
    contractibility_obstruction,
    derivation_algebra,
    engel_flag,
)
from lieactions.matrixgroups import generators, identity, random_element
from lieactions.pcg64 import DefaultRNG
from lieactions.obstructions import (
    VERDICT_DEGENERATE,
    VERDICT_IMPOSSIBLE,
    borderline_analysis,
    n_action_verdict,
)
from lieactions.polynomials import Poly
from lieactions.vectorfields import (
    action_homomorphism_check,
    commuting_family,
    flow_checks,
    hamiltonian_field,
    make_projective_action,
    projective_kernel,
)

from clirunner import invoke
from one_sample import OneAtATimeSampler, random_sl2
from pair_rows import basis_vector, dense, exact_bracket
from test_deformations import verify_group

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  [{number:>2}] {description}")
                raise
            print(f"PASS  [{number:>2}] {description}")
        return wrapper
    return deco


def _catalog_entries():
    """(key, algebra, description) for every default catalog entry."""
    return [(key, catalog(key), desc) for key, desc in DEFAULT_CATALOG]


def _jacobson_consistent(g):
    """Solvability of g matches nilpotency of its commutator ideal [g, g]."""
    full = g.full_space()
    ideal_nilpotent = g.lower_central_series_of(g.subspace_bracket(full, full)).length is not None
    return (g.derived_length() is not None) == ideal_nilpotent


def _cocycle_check(n):
    """The exponents e(i, j) that st_deformation(n) puts on E_ij satisfy
    e(i, j) + e(j, k) = e(i, k), so each scaling is multiplicative."""
    d = st_deformation(n)
    expo = dict(zip(d.parent.basis_names, d.stages[0].exponents))
    e = lambda i, j: expo[f"E{i}{j}"] if i < j else 0
    triples = itertools.combinations_with_replacement(range(1, n + 1), 3)
    return all(e(i, j) + e(j, k) == e(i, k) for i, j, k in triples)


def _all_effective(report):
    """Every generator moved some sampled point."""
    return all(w is not None for w in report.witnesses.values())


# -- 1 ---------------------------------------------------------------------


@criterion(1, "catalog validity: Jacobi holds exactly on every entry")
def test_criterion_01_catalog_jacobi():
    entries = _catalog_entries()
    assert any(key == "mueller_roemer7" for key, _, _ in entries)
    for key, alg, _ in entries:
        assert alg.jacobi_check() == [], key
    # the 7-dimensional table, transcribed relation by relation
    mr = catalog("mueller_roemer7")

    def e(i):
        return basis_vector(mr, i)

    for k in range(1, 6):
        assert exact_bracket(mr, e(0), e(k)) == e(k + 1), k
    assert exact_bracket(mr, e(1), e(2)) == e(5)
    assert exact_bracket(mr, e(1), e(3)) == e(6)
    assert exact_bracket(mr, e(2), e(3)) == e(6)
    assert exact_bracket(mr, e(1), e(4)) == tuple(-c for c in e(6))


# -- 2 ---------------------------------------------------------------------


def _sympy_derived_length(mats, n):
    def span(ms):
        if not ms:
            return 0, []
        m = sp.Matrix([[x[i, j] for i in range(n) for j in range(n)] for x in ms])
        rref, piv = m.rref()
        return len(piv), [sp.Matrix(n, n, list(rref.row(k))) for k in range(len(piv))]

    dim, term = span(list(mats))
    length = 0
    while dim > 0:
        brs = [a * b - b * a for a, b in itertools.combinations(term, 2)]
        newdim, newterm = span(brs)
        if newdim == dim:
            return None
        dim, term = newdim, newterm
        length += 1
    return length


@criterion(2, "derived lengths of st(m), m=2..6, equal [2,3,3,4,4]; conflict flagged")
def test_criterion_02_derived_lengths():
    expected = [2, 3, 3, 4, 4]
    computed = []
    oracle = []
    for m in range(2, 7):
        computed.append(catalog("st", m).derived_length())
        sym = [
            sp.Matrix([[float(x) for x in row] for row in dense(mat)])
            for mat in catalog_matrices("st", m)
        ]
        oracle.append(_sympy_derived_length(sym, m))
    assert oracle == expected
    assert computed == expected
    # the report must flag the disagreement with the quoted formula m+1
    for m in range(2, 7):
        notes = convention_notes("st", m, computed[m - 2])
        assert notes and str(m + 1) in notes[0]
    result = invoke(["algebra", "analyze", "catalog:st3"])
    assert json.loads(result.output)["notes"]


# -- 3 ---------------------------------------------------------------------


@criterion(3, "nilpotency class of the strict uppers is m-1 for m=2..6")
def test_criterion_03_nilpotency_classes():
    for m in range(2, 7):
        g = catalog("st_prime", m)
        # grading oracle: term j of the lower central series is the span
        # of matrix units at distance > j, hence dims are known in closed form
        series = g.lower_central_series()
        expected_dims = []
        j = 0
        while True:
            d = sum(m - dist for dist in range(j + 1, m))
            expected_dims.append(d)
            if d == 0:
                break
            j += 1
        assert list(series.term_dims) == expected_dims
        assert g.nilpotency_class() == m - 1, m


# -- 4 ---------------------------------------------------------------------


@criterion(4, "solvability of g equals nilpotency of g' on catalog and pairwise sums")
def test_criterion_04_jacobson_equivalence():
    entries = _catalog_entries()
    for key, alg, _ in entries:
        assert _jacobson_consistent(alg), key
    for (ka, a, _), (kb, b, _) in itertools.combinations(entries, 2):
        assert _jacobson_consistent(direct_sum(a, b)), (ka, kb)


# -- 5 ---------------------------------------------------------------------


@criterion(5, "nilpotent derivation algebra obstructs contraction; der(abelian m) = m^2")
def test_criterion_05_mueller_roemer_obstruction():
    g = catalog("mueller_roemer7")
    der = derivation_algebra(g)
    assert der.dim > 0
    assert engel_flag(list(der.basis), g.dim) is not None  # the span is nil
    report = contractibility_obstruction(g)
    assert report.status == "obstructed"
    flag = report.flag
    assert flag is not None and flag[-1].dim == g.dim
    # the flag is a strictly increasing chain on which every derivation
    # acts strictly: D(W_{k+1}) <= W_k
    chain = [flag[0].__class__.zero(g.dim)] + list(flag)
    for low, high in zip(chain, chain[1:]):
        assert high.dim > low.dim
        for d in der.basis:
            for b in high.basis_vectors():
                assert low.contains([sum(x * y for x, y in zip(row, b)) for row in dense(d)])
    for m in (2, 3):
        assert derivation_algebra(catalog("abelian", m)).dim == m * m


# -- 6 ---------------------------------------------------------------------


@criterion(6, "scaling cocycle exact for 1 <= i <= j <= k <= 8; profile clamps exact")
def test_criterion_06_cocycle_and_profile():
    assert _cocycle_check(8)
    assert smooth_step(0.0) == 1.0 and smooth_step(-3.5) == 1.0
    assert smooth_step(1.0) == 0.0 and smooth_step(7.0) == 0.0


# -- 7 ---------------------------------------------------------------------


@criterion(7, "graded and concatenated deformations verify for n=2..5")
def test_criterion_07_algebra_deformations():
    for n in range(2, 6):
        base = st_deformation(n)
        rep = verify_deformation(base, samples=100)
        assert rep.d1_identity_exact and rep.d2_constant_exact
        assert rep.law_max_residual <= 1e-9, (n, rep.law_max_residual)
        chain = concatenate(diag_contraction(n), st_deformation(n))
        repc = verify_deformation(chain, samples=100)
        assert repc.d1_identity_exact and repc.d2_constant_exact
        assert repc.law_max_residual <= 1e-9
        assert chain.factors(1.0) == [0.0] * chain.parent.dim  # exact on every basis element


# -- 8 ---------------------------------------------------------------------


@criterion(8, "group families are multiplicative to 1e-9; det and shape preserved")
def test_criterion_08_group_deformations():
    for family in (bump_group_deformation("ST", 3), bump_group_deformation("U", 3)):
        rep = verify_group(family, samples=200)
        assert rep.law_max_residual <= 1e-9, family.label
        assert rep.det_max_residual <= 1e-9
        assert rep.below_diagonal_max <= 1e-9


# -- 9 ---------------------------------------------------------------------


def _unit_point(rng, center):
    """center + v * uniform(0.05, 1.3), v a unit vector of normals, drawn from a DefaultRNG."""
    v = rng.normal(len(center))
    norm = math.sqrt(sum(c * c for c in v))
    w = rng.uniform(0.05, 1.3, 1)[0]
    return tuple(c / norm * w + x for c, x in zip(v, center))


def _ball_suite(group):
    ball = make_ball_action(group, 3)
    report = verify_action(
        ball.apply,
        identity(3),
        OneAtATimeSampler(lambda r: random_element(r, group, 3), lambda r: _unit_point(r, ball.center)),
        generators(group, 3),
        samples=200,
    )
    assert report.max_identity_residual <= 1e-9
    assert report.max_composition_residual <= 1e-6
    assert _all_effective(report)
    # identity outside the annulus is exact
    g = random_element(DefaultRNG(0), group, 3)
    for r in (0.05, 0.25, 0.95, 2.0):
        y = (r, 0.0, 0.0)
        assert ball.apply([g], [y]) == [y]


@criterion(9, "compact ball actions (ST(3) and unitriangular) and multiball verify")
def test_criterion_09_ball_actions():
    _ball_suite("ST")
    _ball_suite("U")
    balls = [
        make_ball_action("ST", 3, center=(0.0, 0.0, 0.0)),
        make_ball_action("ST", 3, center=(3.0, 0.0, 0.0)),
        make_ball_action("ST", 3, center=(0.0, 3.0, 0.0)),
    ]
    mb = MultiBall(tuple(balls))

    def sample_el(rng):
        return tuple(random_element(rng, "ST", 3) for _ in range(3))

    def sample_pt(rng):
        return _unit_point(rng, balls[rng.integers(0, 3)].center)

    gens = []
    for j in range(3):
        for name, g in generators("ST", 3):
            el = [identity(3)] * 3
            el[j] = g
            gens.append((f"ball{j}.{name}", tuple(el)))
    report = verify_action(
        mb.apply, (identity(3),) * 3, OneAtATimeSampler(sample_el, sample_pt), gens, samples=200
    )
    assert report.max_identity_residual <= 1e-9
    assert report.max_composition_residual <= 1e-6
    assert _all_effective(report)


# -- 10 ----------------------------------------------------------------------


@criterion(10, "projective actions exact with one sign; kernel is the scalars")
def test_criterion_10_projective():
    signs = set()
    for n in (1, 2, 3):
        action = make_projective_action(n)
        check = action_homomorphism_check(action)
        assert check.exact, n
        signs.add(check.sign)
        kernel = projective_kernel(n)
        ident = [Fraction(int(i == j)) for i in range(n + 1) for j in range(n + 1)]
        assert kernel.dim == 1 and kernel.contains(ident)
    assert len(signs) == 1


# -- 11 ----------------------------------------------------------------------


@criterion(11, "commuting family certificates exact; flows commute and conserve f")
def test_criterion_11_commuting_families():
    f = Poly.make(2, {(2, 0): 1, (0, 2): 1})
    x_field = hamiltonian_field(f)
    profiles = [Poly.make(1, {(k,): 1}) for k in range(4)]
    fields, cert = commuting_family(f, x_field, profiles)
    assert cert.pairwise_brackets_zero and cert.pairs_checked == 6
    assert cert.independent
    worst_comm = 0.0
    worst_level = 0.0
    for a, b in itertools.combinations(range(4), 2):
        rep = flow_checks(fields[a], fields[b], [1.0, 0.0], 0.5, -0.5, 1e-3, level_function=f)
        worst_comm = max(worst_comm, rep.commutation_residual)
        worst_level = max(worst_level, rep.level_residual)
    assert worst_comm <= 1e-5
    assert worst_level <= 1e-8


# -- 12 ----------------------------------------------------------------------


@criterion(12, "dimension verdicts: impossible below bound, degenerate at borderline")
def test_criterion_12_verdicts():
    assert n_action_verdict(catalog("heisenberg3"), 1).verdict == VERDICT_IMPOSSIBLE
    verdict = n_action_verdict(catalog("n3"), 2)
    assert verdict.verdict == VERDICT_DEGENERATE
    report = borderline_analysis(catalog("n3"))
    assert report.center.contains_subspace(report.last_derived_term)
    assert report.center_dim == 2
    h3 = borderline_analysis(catalog("heisenberg3"))
    assert h3.verdicts == ("no central obstruction",)
    assert h3.center_dim == 1 and h3.last_derived_term.dim == 1


# -- 13 ----------------------------------------------------------------------


@criterion(13, "lifted circle action: composition, deck shifts, interval witnesses")
def test_criterion_13_cover_action():
    rng = np.random.default_rng(1729)
    worst = 0.0
    for _ in range(100):
        a = CoverElement.of(random_sl2(rng).ravel(), int(rng.integers(-2, 3)))
        b = CoverElement.of(random_sl2(rng).ravel(), int(rng.integers(-2, 3)))
        (ab,) = cover_compose([a], [b])
        for theta in rng.uniform(-6, 6, size=3):
            worst = max(worst, abs(cover_eval(ab, float(theta)) - cover_eval(a, cover_eval(b, float(theta)))))
    assert worst <= 1e-9
    deck_worst = 0.0
    for _ in range(20):
        a = CoverElement.of(random_sl2(rng).ravel())
        for theta in rng.uniform(-6, 6, size=25):
            deck_worst = max(
                deck_worst,
                abs(cover_eval(a, float(theta) + math.pi) - cover_eval(a, float(theta)) - math.pi),
            )
    assert deck_worst <= 1e-9
    movers = 0
    for name, g in generators("SL2", 2):
        a = CoverElement.of(g)
        assert interval_action(a, 0.0) == 0.0
        assert interval_action(a, 1.0) == 1.0
        if abs(interval_action(a, 0.5) - 0.5) >= 1e-6:
            movers += 1
    assert movers >= 1


# -- 14 ----------------------------------------------------------------------


@criterion(14, "CLI reports are byte-identical across runs with the same seed")
def test_criterion_14_determinism():
    commands = [
        ["algebra", "analyze", "catalog:mueller_roemer7"],
        ["algebra", "obstruct", "catalog:n3", "--dim", "2"],
        ["deform", "verify", "--family", "concat", "--n", "4"],
        ["act", "verify", "--scenario", os.path.join(SCENARIOS, "ball_st3.json")],
        ["vf", "verify", "--scenario", os.path.join(SCENARIOS, "commuting_family.json")],
    ]
    for cmd in commands:
        first = invoke(cmd)
        second = invoke(cmd)
        assert first.exit_code == 0 and second.exit_code == 0, cmd
        assert first.output.encode() == second.output.encode(), cmd
