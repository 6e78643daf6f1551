"""`serialize.dumps` against a plain reference formatter, and the one
reader of JSON input against arbitrary JSON.

The reference formats every value through `json.dumps` and decides the
layout from the values one at a time; `dumps` must produce the same
bytes on arbitrary nested reports. Every key table, of a scenario object
or of the algebra document, reads any JSON value or raises FormatError.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieactions import cli
from lieactions.algebra import BRACKET_KEYS, DOCUMENT_KEYS, from_json_dict
from lieactions.serialize import FormatError, dumps, read_object


def _ref_scalar(obj):
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, Fraction):
        return json.dumps(f"{obj.numerator}/{obj.denominator}")
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        # JSON has no NaN or infinity literal: they are written as strings
        return format(obj, ".17g") if math.isfinite(obj) else json.dumps(str(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    return None


def _ref(obj, indent=0):
    if _ref_scalar(obj) is not None:
        return _ref_scalar(obj)
    is_dict = isinstance(obj, dict)
    opening, closing = "{}" if is_dict else "[]"
    if not obj:
        return opening + closing
    entries = list(obj.items()) if is_dict else [(None, v) for v in obj]

    def key(k):
        return "" if k is None else json.dumps(str(k), ensure_ascii=False) + ": "

    if all(_ref_scalar(v) is not None for _, v in entries) and (not is_dict or len(obj) <= 8):
        return opening + ", ".join(key(k) + _ref_scalar(v) for k, v in entries) + closing
    inner = "  " * (indent + 1)
    lines = [inner + key(k) + _ref(v, indent + 1) for k, v in entries]
    return opening + "\n" + ",\n".join(lines) + "\n" + "  " * indent + closing


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.fractions(),
    st.text(),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=10),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers()), inner, max_size=10),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(values)
def test_dumps_matches_reference(obj):
    assert dumps(obj) == _ref(obj) + "\n"


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError, match="object"):
        dumps({"x": [object()]})


def test_non_finite_floats_are_json_strings():
    text = dumps({"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "max": 1.7976931348623157e308})
    assert text == '{"nan": "nan", "inf": "inf", "-inf": "-inf", "max": 1.7976931348623157e+308}\n'
    assert json.loads(text, parse_constant=lambda name: pytest.fail(f"bare {name} in the output")) == {
        "nan": "nan", "inf": "inf", "-inf": "-inf", "max": 1.7976931348623157e308,
    }


# -- the reader ----------------------------------------------------------------------


# every key table: those of the scenario objects, each action kind's with the keys
# every kind shares, and those of the algebra document
TABLES = {name: table for name, table in vars(cli).items() if name.endswith("_KEYS")}
TABLES.update({f"{kind} action": {**cli.ACT_KEYS, **keys} for kind, (keys, _) in cli.ACTIONS.items()})
TABLES.update(DOCUMENT_KEYS=DOCUMENT_KEYS, BRACKET_KEYS=BRACKET_KEYS)
KEYS = sorted({key for table in TABLES.values() for key in table})

# what json.load can return: NaN and the infinities included; object keys are
# mostly the keys the tables know, so that values get past the key check
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | st.sampled_from(KEYS),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner,
                                                                 max_size=6),
    max_leaves=16,
)
def _of_kind(kind):
    """Values of a rule's kind (see serialize.read_value), mostly near its bounds."""
    if isinstance(kind, list):
        return st.lists(_of_kind(kind[0]), max_size=4)
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    return {int: st.integers(-2, 20) | st.integers(), float: st.floats(), str: st.text(max_size=3),
            dict: st.dictionaries(st.text(max_size=2), json_values, max_size=2)}.get(kind, json_values)


@st.composite
def table_objects(draw):
    """(the name of a key table, an object of some of its keys, each value
    of the key's kind or any JSON)."""
    name = draw(st.sampled_from(sorted(TABLES)))
    table = TABLES[name]
    keys = [key for key in table if draw(st.integers(0, 5))]  # each key, most of the time
    return name, {key: draw(_of_kind(table[key][0]) | json_values) for key in keys}


@st.composite
def documents(draw):
    """An algebra document that is right, nearly right (indices drawn
    around 1..dim) or with one key dropped or given any JSON value."""
    dim = draw(st.integers(0, 4))
    indices = st.sampled_from([str(k) for k in range(dim + 2)] + ["01", "x"])

    def entry():
        i, j = sorted(draw(st.lists(st.integers(1, dim + 2), min_size=2, max_size=2, unique=True)))
        result = {k: draw(st.sampled_from(["1", "-1/2", "2/0", 3])) for k in draw(st.lists(indices, max_size=3))}
        return {"i": i, "j": j, "result": result}

    doc = {"name": "g", "dim": dim, "basis": [f"e{k}" for k in range(dim)],
           "brackets": [entry() for _ in range(draw(st.integers(0, 3)))]}
    if draw(st.booleans()):
        target = draw(st.sampled_from([doc, *doc["brackets"]]))
        key = draw(st.sampled_from(list(target)))
        if draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(json_values)
    return doc


@settings(max_examples=100, deadline=None, derandomize=True)
@given(table_objects() | st.tuples(st.sampled_from(sorted(TABLES)), json_values))
def test_every_key_table_reads_any_json_or_raises_format_error(case):
    name, doc = case
    try:
        values = read_object(doc, TABLES[name], "the object")
    except FormatError:
        return
    assert list(values) == list(TABLES[name])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(documents() | json_values)
def test_algebra_reader_reads_any_json_or_raises_format_error(doc):
    try:
        g = from_json_dict(doc)
    except FormatError:
        return
    assert g.dim == doc["dim"] and list(g.basis_names) == doc["basis"]
