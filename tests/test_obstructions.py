"""Minimum-dimension and borderline-degeneracy verdicts."""

import pytest

from lieactions.algebra import direct_sum
from lieactions.catalog import DEFAULT_CATALOG, catalog
from lieactions.obstructions import (
    VERDICT_DEGENERATE,
    VERDICT_IMPOSSIBLE,
    VERDICT_NONE,
    borderline_analysis,
    min_effective_action_dim,
    n_action_verdict,
)


def _catalog_entries():
    """(key, algebra, description) for every default catalog entry."""
    return [(key, catalog(key), desc) for key, desc in DEFAULT_CATALOG]


def test_min_effective_dims():
    assert min_effective_action_dim(catalog("abelian", 2)) == 1
    assert min_effective_action_dim(catalog("heisenberg3")) == 2
    assert min_effective_action_dim(catalog("st2")) == 1
    assert min_effective_action_dim(catalog("sl2")) is None


def test_bound_unchanged_by_abelian_summand():
    # an abelian summand changes neither the derived length nor
    # nilpotency, so the bound is stable for nonabelian solvable entries
    for key, alg, _ in _catalog_entries():
        preds = alg.predicates()
        if not preds.is_solvable or alg.derived_length() == 1:
            continue
        extended = direct_sum(alg, catalog("abelian", 1))
        assert min_effective_action_dim(extended) == min_effective_action_dim(alg), key


def test_borderline_h3_no_central_obstruction():
    report = borderline_analysis(catalog("heisenberg3"))
    assert report.nilpotent
    assert report.derived_length == 2
    assert report.center_dim == 1
    assert report.last_term_central
    assert report.verdicts == ("no central obstruction",)


def test_borderline_n3_degenerate():
    report = borderline_analysis(catalog("n3"))
    assert report.last_term_central
    assert report.center_dim == 2
    assert report.last_derived_term.dim == 1
    assert any("degenerate" in v for v in report.verdicts)
    assert report.min_effective_dim == 2


def test_borderline_st2_not_central():
    report = borderline_analysis(catalog("st2"))
    assert not report.last_term_central
    assert report.verdicts == ()


def test_borderline_rejects_nonsolvable():
    with pytest.raises(ValueError):
        borderline_analysis(catalog("sl2"))


def test_action_verdicts():
    assert n_action_verdict(catalog("heisenberg3"), 1).verdict == VERDICT_IMPOSSIBLE
    assert n_action_verdict(catalog("n3"), 2).verdict == VERDICT_DEGENERATE
    assert n_action_verdict(catalog("abelian", 2), 2).verdict == VERDICT_NONE
    assert n_action_verdict(catalog("sl2"), 1).verdict == VERDICT_NONE


def test_verdict_consistency_invariants():
    for key, alg, _ in _catalog_entries():
        bound = min_effective_action_dim(alg)
        for n in range(0, 5):
            verdict = n_action_verdict(alg, n)
            if verdict.verdict == VERDICT_IMPOSSIBLE:
                assert bound is not None and n < bound, key
            if verdict.verdict == VERDICT_DEGENERATE:
                report = borderline_analysis(alg)
                assert report.last_term_central and report.center_dim > 1, key


def test_report_never_claims_existence():
    # the dictionary of emitted verdict strings only contains
    # impossibility/degeneracy language, never existence claims
    for key, alg, _ in _catalog_entries():
        if alg.derived_length() is None:
            continue
        report = borderline_analysis(alg)
        for v in report.verdicts:
            assert "exists" not in v


def test_report_serialization_fields():
    d = borderline_analysis(catalog("n3")).to_dict()
    for field in (
        "algebra",
        "solvable",
        "nilpotent",
        "derived_length",
        "nilpotency_class",
        "min_effective_dim",
        "center_dim",
        "last_term_central",
        "verdicts",
    ):
        assert field in d
    assert d["derived_length"] == 2
    assert d["min_effective_dim"] == 2


def test_report_not_applicable_for_nonsolvable_bound():
    assert min_effective_action_dim(catalog("sl_c2")) is None


def test_verdict_with_handed_over_borderline_report():
    # a caller that already ran borderline_analysis passes it on; the
    # verdict must equal the one computed from scratch
    for key, alg, _ in _catalog_entries():
        if min_effective_action_dim(alg) is None:
            continue
        report = borderline_analysis(alg)
        for n in range(6):
            assert n_action_verdict(alg, n, report) == n_action_verdict(alg, n), (key, n)
