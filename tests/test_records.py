"""The records of both layers are namedtuple subclasses.

Each keeps the fields it had, in the same order, read-only; equality and
hash are those of the tuple of its fields; a `cached_property` still
stores its value in the instance, computed once; each record that checked
its fields on construction still raises the same ValueError; and no record
that multiplies turns into tuple repetition.
"""

import pytest

from lieactions import catalog
from lieactions.actions import (
    ActionReport,
    BallAction,
    CoverElement,
    MultiBall,
    StackedSampler,
    make_ball_action,
    verify_action,
)
from lieactions.algebra import AlgebraPredicates, LieAlgebra, SeriesReport
from lieactions.deformations import (
    AlgebraDeformation,
    DeformationReport,
    GroupDeformation,
    GroupStage,
    Stage,
    bump_group_deformation,
    st_deformation,
    verify_deformation,
)
from lieactions.derivations import ContractionObstruction, DerivationAlgebra, contractibility_obstruction
from lieactions.linalg import Subspace
from lieactions.matrixgroups import generators, random_element
from lieactions.obstructions import ActionVerdict, ObstructionReport, borderline_analysis, n_action_verdict
from lieactions.polynomials import Poly
from lieactions.vectorfields import (
    CommutingFamilyCertificate,
    FlowCheckReport,
    HomomorphismCheck,
    PolyVectorField,
    VFAction,
    action_homomorphism_check,
    commuting_family,
    flow_checks,
    hamiltonian_field,
    make_projective_action,
)

from one_sample import OneAtATimeSampler

CIRCLE = Poly.make(2, {(2, 0): 1, (0, 2): 1})


def _ball_report(g):
    ball = make_ball_action("U", 3)
    points = lambda r: tuple(r.normal(3))
    sampler = OneAtATimeSampler(lambda r: random_element(r, "U", 3), points, StackedSampler("U", (3, 3), (ball,)))
    return verify_action(ball.apply, sampler, generators("U", 3), samples=3)


# record class -> (its fields in order, how to build one from st(3), its cached properties)
RECORDS = {
    LieAlgebra: (
        ("name", "dim", "basis_names", "table"),
        lambda g: g,
        ("den", "adjoint", "float_table", "derived", "lower_central", "center_space",
         "derivation_algebra"),
    ),
    SeriesReport: (("kind", "terms", "stabilized", "length"), lambda g: g.derived, ()),
    AlgebraPredicates: (("is_solvable", "is_nilpotent"), lambda g: g.predicates(), ()),
    Subspace: (("ambient_dim", "basis"), lambda g: g.center_space, ()),
    DerivationAlgebra: (("parent", "basis"), lambda g: g.derivation_algebra, ()),
    ContractionObstruction: (
        ("algebra", "status", "derivation_dim", "flag", "witness"),
        contractibility_obstruction,
        (),
    ),
    ObstructionReport: (
        ("algebra", "solvable", "nilpotent", "derived_length", "nilpotency_class", "min_effective_dim",
         "last_derived_term", "center", "last_term_central", "center_dim", "verdicts"),
        borderline_analysis,
        (),
    ),
    ActionVerdict: (("algebra", "manifold_dim", "verdict", "detail"), lambda g: n_action_verdict(g, 3), ()),
    # the numerical layer; st(3) is only handed through
    Stage: (("t0", "t1", "exponents"), lambda g: st_deformation(3).stages[0], ()),
    AlgebraDeformation: (("label", "parent", "stages", "domain_indices"), lambda g: st_deformation(3), ()),
    GroupStage: (("t0", "t1", "kind", "start", "end"), lambda g: bump_group_deformation("ST", 3).stages[0], ()),
    GroupDeformation: (("label", "group", "n", "stages"), lambda g: bump_group_deformation("ST", 3), ()),
    DeformationReport: (
        ("label", "d1_identity_exact", "d2_constant_exact", "contraction_at_one", "flatness_max_quotient",
         "law_max_residual", "extra"),
        lambda g: verify_deformation(st_deformation(3), samples=2),
        (),
    ),
    BallAction: (
        ("group", "n", "deformation", "r0", "r1", "center", "radius"),
        lambda g: make_ball_action("ST", 3),
        ("_log_radii",),
    ),
    MultiBall: (("balls",), lambda g: MultiBall((make_ball_action("U", 2), make_ball_action("U", 2, center=(3, 0)))), ()),
    ActionReport: (
        ("max_identity_residual", "max_composition_residual", "witnesses", "samples", "seed", "move_threshold"),
        _ball_report,
        (),
    ),
    CoverElement: (("matrix", "deck"), lambda g: CoverElement.of((1.0, 0.0, 0.0, 1.0), 1), ()),
    Poly: (("nvars", "terms"), lambda g: CIRCLE, ()),
    PolyVectorField: (("components",), lambda g: hamiltonian_field(CIRCLE), ("evaluator",)),
    CommutingFamilyCertificate: (
        ("pairwise_brackets_zero", "pairs_checked", "independent"),
        lambda g: commuting_family(CIRCLE, hamiltonian_field(CIRCLE),
                                   [Poly.make(1, {(1,): 1}), Poly.constant(1, 1)])[1],
        (),
    ),
    VFAction: (("algebra", "images", "sign"), lambda g: make_projective_action(1), ()),
    HomomorphismCheck: (
        ("sign", "exact", "violations"), lambda g: action_homomorphism_check(make_projective_action(1)), ()
    ),
    FlowCheckReport: (
        ("commutation_residual", "level_residual"),
        lambda g: flow_checks(hamiltonian_field(CIRCLE), hamiltonian_field(CIRCLE), [1.0, 0.0], 0.01, 0.01, 1e-3,
                              level_function=CIRCLE),
        (),
    ),
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    fields, build, cached = RECORDS[cls]
    record = build(catalog("st3"))
    assert type(record) is cls and cls._fields == fields
    values = tuple(getattr(record, name) for name in fields)

    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert tuple(getattr(record, name) for name in fields) == values

    # equality and hash follow the fields: a rebuilt copy is equal, with the
    # hash of the tuple of fields, and changing any one field breaks equality
    copy = cls(*values)
    assert copy == record
    try:
        expected = hash(values)
    except TypeError:  # a dict field: the record is unhashable, like its fields
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(copy) == hash(record) == expected
    # built as a plain tuple of fields: `_replace` runs the field checks of the
    # records that have them, and object() is no valid field
    for i in range(len(fields)):
        assert tuple.__new__(cls, values[:i] + (object(),) + values[i + 1:]) != record

    for name in cached:
        value = getattr(record, name)
        assert vars(record)[name] is value and getattr(record, name) is value
    assert not any(name in vars(copy) for name in cached)


def _st3_deformation(**change):
    d = st_deformation(3)
    return AlgebraDeformation(*d._replace(**change))


# (how to build a record, the arguments of an invalid one, the ValueError it raises)
INVALID = [
    (_st3_deformation, {"stages": (Stage(0.0, 1.0, (1, 2)),)}, "stage exponent count"),
    (_st3_deformation, {"stages": (Stage(0.5, 0.5, (0,) * 5),)}, "positive length"),
    (_st3_deformation, {"stages": (Stage(0.0, 0.6, (0,) * 5), Stage(0.5, 1.0, (0,) * 5))}, "must not overlap"),
    (_st3_deformation, {"stages": (Stage(0.0, 1.0, (0, 0, 0, -1, 0)),)}, "nonnegative"),
    (BallAction, {"group": "ST", "n": 2, "deformation": bump_group_deformation("ST", 2), "r0": 0.9, "r1": 0.3,
                  "center": (0.0, 0.0), "radius": 1.0}, "annulus radii"),
    (BallAction, {"group": "ST", "n": 2, "deformation": bump_group_deformation("ST", 2), "r0": 0.3, "r1": 0.9,
                  "center": (0.0, 0.0), "radius": 0.0}, "radius must be positive"),
    (BallAction, {"group": "ST", "n": 2, "deformation": bump_group_deformation("ST", 2), "r0": 0.3, "r1": 0.9,
                  "center": (0.0,), "radius": 1.0}, "center dimension"),
    (MultiBall, {"balls": (make_ball_action("U", 2), make_ball_action("U", 2, center=(1.5, 0.0)))}, "overlap"),
    (PolyVectorField, {"components": (Poly.zero(2),)}, "variable count"),
]


@pytest.mark.parametrize("make, kwargs, message", INVALID, ids=lambda x: getattr(x, "__name__", None))
def test_record_checks_its_fields(make, kwargs, message):
    with pytest.raises(ValueError, match=message):
        make(**kwargs)


def test_multiplying_records_never_repeat_the_tuple():
    field = hamiltonian_field(CIRCLE)
    for product in (lambda: 2 * CIRCLE, lambda: field * 2, lambda: 2 * field):
        with pytest.raises(TypeError):
            product()
    assert CIRCLE * CIRCLE == Poly.make(2, {(4, 0): 1, (2, 2): 2, (0, 4): 1})


# (a valid record, a change of one field to a bad value, the ValueError its constructor raises)
REPLACED = [
    (lambda: st_deformation(3), {"stages": (Stage(0.0, 1.0, (1, 2)),)}, "stage exponent count"),
    (lambda: make_ball_action("ST", 2), {"radius": 0.0}, "radius must be positive"),
    (lambda: MultiBall((make_ball_action("U", 2), make_ball_action("U", 2, center=(3, 0)))),
     {"balls": (make_ball_action("U", 2), make_ball_action("U", 2, center=(1.5, 0.0)))}, "overlap"),
    (lambda: hamiltonian_field(CIRCLE), {"components": (Poly.zero(2),)}, "variable count"),
]


@pytest.mark.parametrize("build, change, message", REPLACED, ids=["AlgebraDeformation", "BallAction", "MultiBall",
                                                                   "PolyVectorField"])
def test_replace_and_make_run_the_field_checks(build, change, message):
    record = build()
    with pytest.raises(ValueError, match=message):
        record._replace(**change)
    with pytest.raises(ValueError, match=message):
        type(record)._make(change.get(name, value) for name, value in zip(record._fields, record))
    assert record._replace() == record and type(record._replace()) is type(record)


def test_poly_with_a_number_is_a_type_error():
    for result in (lambda: CIRCLE + 2, lambda: CIRCLE * 2, lambda: 2 + CIRCLE):
        with pytest.raises(TypeError):
            result()
