"""`serialize.dumps` against a plain reference formatter, and the one
reader of JSON input against arbitrary JSON.

The reference formats every value through `json.dumps` and decides the
layout from the values one at a time; `dumps` must produce the same
bytes on arbitrary nested reports. Every key table, of a scenario object
or of the algebra document, reads any JSON value or raises FormatError.
"""

import ast
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieactions import act_verbs, deform_verbs, vf_verbs
from lieactions.algebra import BRACKET_KEYS, DOCUMENT_KEYS, from_json_dict
from lieactions.serialize import (
    POSITIVE,
    FormatError,
    _quoted,
    dumps,
    encode_basestring,
    parse_rational,
    read_int,
    read_object,
    read_value,
)


def _ref_scalar(obj):
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
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
    # a rational reaches a report only as "p/q" text, written by serialize.rational_row
    for leaf in (object(), Fraction(1, 2)):
        name = type(leaf).__name__
        with pytest.raises(TypeError, match=name):
            dumps({"x": [leaf]})
        with pytest.raises(TypeError, match=name):
            dumps(leaf)


def test_non_finite_floats_are_json_strings():
    text = dumps({"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "max": 1.7976931348623157e308})
    assert text == '{"nan": "nan", "inf": "inf", "-inf": "-inf", "max": 1.7976931348623157e+308}\n'
    assert json.loads(text, parse_constant=lambda name: pytest.fail(f"bare {name} in the output")) == {
        "nan": "nan", "inf": "inf", "-inf": "-inf", "max": 1.7976931348623157e308,
    }


# -- the escaper of strings ------------------------------------------------------------

# what an escaper gets wrong: the quote, the backslash, every control character,
# DEL, the line and paragraph separators; with any character, lone surrogates and
# characters beyond the BMP
ESCAPED = ['"', "\\", *map(chr, range(0x20)), "\x7f", "\u2028", "\u2029"]
escapable = st.lists(
    st.sampled_from(ESCAPED) | st.characters() | st.integers(0xD800, 0xDFFF).map(chr)
    | st.integers(0x10000, 0x10FFFF).map(chr),
    max_size=24,
).map("".join)
SAMPLES = ["", "plain", *ESCAPED, "\ud800", "a\udfffb", "\U0001f600", "\U0010ffff", '"\\\n\u2028\ud83d']


@settings(max_examples=300, deadline=None)
@given(escapable)
def test_escaper_is_the_json_encoders(text):
    assert encode_basestring(text) == json.encoder.encode_basestring(text)


WITHOUT_JSON_ACCELERATOR = """
import sys
sys.modules["_json"] = None  # any import of _json now raises ImportError
import ast, json
from lieactions import serialize
assert serialize.encode_basestring is json.encoder.py_encode_basestring
print(ascii([serialize.encode_basestring(text) for text in ast.literal_eval(sys.argv[1])]))
"""


def test_escaper_without_the_json_accelerator():
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", WITHOUT_JSON_ACCELERATOR, ascii(SAMPLES)],
                          capture_output=True, text=True, env=env, timeout=60, check=True)
    assert ast.literal_eval(proc.stdout) == [json.encoder.encode_basestring(text) for text in SAMPLES]


# -- the reader ----------------------------------------------------------------------


# every key table: those of the scenario objects, each action kind's with the keys
# every kind shares, and those of the algebra document
TABLES = {name: table for module in (deform_verbs, act_verbs, vf_verbs)
          for name, table in vars(module).items() if name.endswith("_KEYS")}
TABLES.update({f"{kind} action": {**act_verbs.ACT_KEYS, **keys}
               for kind, (keys, _) in act_verbs.ACTIONS.items()})
TABLES.update(DOCUMENT_KEYS=DOCUMENT_KEYS, BRACKET_KEYS=BRACKET_KEYS)
KEYS = sorted({key for table in TABLES.values() for key in table})


def test_every_key_table_is_gathered():
    # the handler modules hold the scenario tables: none may drop out of the tests below
    assert sorted(TABLES) == sorted([
        "ACT_KEYS", "TOLERANCE_KEYS", "MATRIX_KEYS", "PLACEMENT_KEYS", "POLY_KEYS", "TERM_KEYS", "FIELD_KEYS",
        "COMMUTING_KEYS", "FLOW_CHECK_KEYS", "PROJECTIVE_KEYS", "FLOW_KEYS", "DOCUMENT_KEYS", "BRACKET_KEYS",
        *(f"{kind} action" for kind in ("sphere", "ball", "multiball", "interval", "disk")),
    ])

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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(json_values, st.integers(0, 60))
def test_quoted_is_a_bounded_prefix_of_repr(value, limit):
    # the longest prefix of repr within `limit` bytes of UTF-8, and "..." when it is cut
    text, quoted = repr(value), _quoted(value, limit)
    if len(text.encode()) <= limit:
        assert quoted == text
    else:
        cut = quoted[:-3]
        assert quoted.endswith("...") and text.startswith(cut)
        assert len(cut.encode()) <= limit < len(text[:len(cut) + 1].encode())


def test_quoted_cuts_at_a_byte_limit_between_characters():
    for char in ("\N{LATIN SMALL LETTER E WITH ACUTE}", "\N{CJK UNIFIED IDEOGRAPH-6587}", "\N{GRINNING FACE}"):
        width = len(char.encode())
        assert _quoted(char * 1000) == "'" + char * ((100 - 1) // width) + "..."
        assert _quoted(char * 10, 1 + 3 * width) == "'" + char * 3 + "..."
    assert _quoted("x" * 1000) == "'" + "x" * 99 + "..."


def test_quoted_stops_in_a_long_or_deep_value():
    deep = []
    for _ in range(10**5):  # repr of this list would exceed the recursion limit
        deep = [deep]
    assert _quoted(deep) == "[" * 100 + "..."
    assert _quoted(list(range(10**6))) == repr(list(range(40)))[:100] + "..."
    assert _quoted({"k" * 10**6: 1}) == "{'" + "k" * 98 + "..."


def test_quoted_cuts_an_integer_past_the_digit_limit():
    # repr could not write these, past the interpreter's limit of digits
    assert _quoted(10**5000 - 1) == "9" * 100 + "..."
    assert _quoted(-(10**9000)) == "-1" + "0" * 98 + "..."
    # around the size where the cut by division starts, it agrees with repr
    for bits in range(380, 420):
        for value in (2**bits - 1, 2**bits, -(3**(bits * 2 // 3))):
            assert _quoted(value) == repr(value)[:100] + "..." * (len(repr(value)) > 100), value
            assert _quoted(value, 7) == repr(value)[:7] + "...", value


# -- integers written in outside text ------------------------------------------------------

# text that `int` may read: digits, signs, underscores and spaces weighted in
INT_TEXT = st.text(st.sampled_from("0123456789+-_ \uff15") | st.characters(), max_size=8)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(INT_TEXT, st.sampled_from([None, 0, 2]), st.sampled_from([None, 5, 10_000]))
def test_read_int_reads_ascii_digits_within_bounds(text, low, high):
    digits = text[1:] if low is None and text[:1] == "-" else text
    try:
        value = read_int(text, "the value", low, high)
    except FormatError as exc:
        assert str(exc).startswith("the value ")
        assert not (digits.isascii() and digits.isdigit()) or not (
            (low is None or int(text) >= low) and (high is None or int(text) <= high))
    else:
        assert digits.isascii() and digits.isdigit() and value == int(text)
        assert (low is None or value >= low) and (high is None or value <= high)


def test_read_int_checks_the_length_before_it_builds_the_value():
    limit = sys.get_int_max_str_digits()
    for text in ("9" * (limit + 1), "1" + "0" * 10**5, "-" + "9" * (limit + 1)):
        for low, high in ((None, None), (0, None), (0, 10_000)):
            with pytest.raises(FormatError, match=f"^--n (is '-?(9|10)|must be a nonnegative)"):
                read_int(text, "--n", low, high)
        with pytest.raises(FormatError, match=f"longer than {limit} digits$"):
            read_int(text, "p", None)
    assert read_int("9" * limit, "--seed") == 10**limit - 1
    # leading zeros do not count toward the limit
    assert read_int("0" * 5000 + "7", "--n") == 7
    assert read_int("-" + "0" * 5000 + "7", "p", None) == -7


@pytest.mark.parametrize("text", [" 1/2", "+1/2", "1_0/3", "\uff13/1", "1/ 2", " +1_0/\uff13 ", "1/2 ", "-1/-2",
                                  "--1", "1/", "/2", "", "1/0", "9" * 5000])
def test_malformed_rationals(text):
    with pytest.raises(FormatError, match=f"^malformed rational {re.escape(_quoted(text))}: its (numerator|denominator) "):
        parse_rational(text)


def test_rationals():
    # the last has more leading zeros than the interpreter converts digits: they do not count
    for text, value in (("1/2", Fraction(1, 2)), ("-3", -3), ("0/5", 0), ("007/010", Fraction(7, 10)),
                        ("-4/6", Fraction(-2, 3)), ("9" * 4300 + "/1", 10**4300 - 1),
                        ("-" + "0" * 5000 + "7/" + "0" * 5000 + "2", Fraction(-7, 2))):
        assert parse_rational(text) == value


# -- lists of a scalar kind -------------------------------------------------------------

# the list rules of the key tables and their kinds, with bounds on the list and on each entry
LIST_RULES = [([int], None, None), ([int, 0, 64], None, 3), ([float], 1, None), ([float, POSITIVE, None], None, None),
              ([float, -1.0, 1.0], 0, 4), ([str], None, None), ([dict], None, None)]
entries = (st.integers(-3, 70) | st.integers() | st.floats() | st.booleans() | st.none() | st.text(max_size=2)
           | st.sampled_from([2**1024, -(2**1024), 2**1023 * 2 - 1, POSITIVE, 0.0, -0.0]))


def _entry_by_entry(value, kind, label, low, high):
    """The per-entry reading of a list: every entry through `read_value` in
    turn, then the bounds on the length."""
    item, *bounds = kind
    items = [read_value(x, item, f"each entry of {label}", *bounds) for x in read_value(value, list, label)]
    if low is not None and len(items) < low:
        raise FormatError(f"{label} must have at least {low} entries")
    if high is not None and len(items) > high:
        raise FormatError(f"{label} has {len(items)} entries, above the bound {high}")
    return items


def _outcome(read):
    try:
        values = read()
    except FormatError as exc:
        return "error", str(exc)
    return "value", [(type(x), x) for x in values]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(LIST_RULES), st.lists(entries, max_size=6) | json_values)
def test_list_reader_matches_entry_by_entry(rule, value):
    # a list of ints or floats is checked in one pass; whatever it returns or
    # raises, the message of the first bad entry included, is what reading
    # each entry in turn gives
    kind, low, high = rule
    got = _outcome(lambda: read_value(value, kind, "'xs'", low, high))
    assert got == _outcome(lambda: _entry_by_entry(value, kind, "'xs'", low, high))


@pytest.mark.parametrize("value,kind,message", [
    ([0, 1, -1, 2], [int, 0, 64], "each entry of 'xs' must be at least 0, got -1"),
    ([0, 65, 70], [int, 0, 64], "each entry of 'xs' is 65, above the bound 64"),
    ([1, True], [int], "each entry of 'xs' must be an integer, got True"),
    ([1, 2.0], [int], "each entry of 'xs' must be an integer, got 2.0"),
    ([1.5, float("nan")], [float], "each entry of 'xs' must be a finite number, got nan"),
    ([2**1024], [float], f"each entry of 'xs' must be a finite number, got {str(2**1024)[:100]}..."),
    ([1.0, "2"], [float], "each entry of 'xs' must be a finite number, got '2'"),
    ([0.5, 0.0], [float, POSITIVE, None], "each entry of 'xs' must be positive, got 0.0"),
])
def test_malformed_lists_name_their_first_bad_entry(value, kind, message):
    with pytest.raises(FormatError) as exc:
        read_value(value, kind, "'xs'")
    assert str(exc.value) == message
