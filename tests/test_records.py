"""The exact layer's records are namedtuple subclasses.

Each keeps the fields it had, in the same order, read-only; equality and
hash are those of the tuple of its fields; and a `cached_property` still
stores its value in the instance, computed once.
"""

import pytest

from lieactions import catalog
from lieactions.algebra import AlgebraPredicates, LieAlgebra, SeriesReport
from lieactions.derivations import ContractionObstruction, DerivationAlgebra, contractibility_obstruction
from lieactions.linalg import Subspace
from lieactions.obstructions import ActionVerdict, ObstructionReport, borderline_analysis, n_action_verdict

# record class -> (its fields in order, how to build one from st(3), its cached properties)
RECORDS = {
    LieAlgebra: (
        ("name", "dim", "basis_names", "table"),
        lambda g: g,
        ("sparse_table", "integer_table", "float_table", "derived", "lower_central", "center_space",
         "derivation_algebra"),
    ),
    SeriesReport: (("kind", "terms", "stabilized", "length"), lambda g: g.derived, ()),
    AlgebraPredicates: (("is_solvable", "is_nilpotent"), lambda g: g.predicates(), ()),
    Subspace: (("ambient_dim", "basis"), lambda g: g.center_space, ()),
    DerivationAlgebra: (("parent", "basis"), lambda g: g.derivation_algebra, ("span",)),
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
    assert copy == record and hash(copy) == hash(record) == hash(values)
    for name in fields:
        assert record._replace(**{name: object()}) != record

    for name in cached:
        value = getattr(record, name)
        assert vars(record)[name] is value and getattr(record, name) is value
    assert not any(name in vars(copy) for name in cached)
