"""`serialize.dumps` against a plain reference formatter.

The reference formats every value through `json.dumps` and decides the
layout from the values one at a time; `dumps` must produce the same
bytes on arbitrary nested reports.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieactions.serialize import dumps


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
