"""Deterministic JSON emission, and the one reader of JSON input.

Reports must be byte-identical across runs with the same inputs, so we
write JSON ourselves: insertion-ordered keys, rationals as "p/q"
strings, floats printed with 17 significant digits (a non-finite float
as the string "nan", "inf" or "-inf").

Every JSON document read, an algebra or a scenario, is read object by
object through a key table (`read_object`), so types, defaults and
bounds are checked by the same rules everywhere.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from fractions import Fraction
from json.encoder import encode_basestring

__all__ = ["format_rational", "parse_rational", "dumps", "FormatError", "REQUIRED", "POSITIVE", "read_value",
           "read_object"]


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    """Parse 'p/q' (or a bare integer 'p'); reject anything else."""
    if not isinstance(s, str):
        raise ValueError(f"rational must be a string, got {s!r}")
    txt = s.strip()
    num, sep, den = txt.partition("/")
    try:
        n = int(num)
        d = int(den) if sep else 1
    except ValueError:
        raise ValueError(f"malformed rational {s!r}") from None
    if d <= 0:
        raise ValueError(f"malformed rational {s!r}: denominator must be positive")
    return Fraction(n, d)


def _scalar(obj) -> str | None:
    """The JSON text of a scalar, or None for a container."""
    if isinstance(obj, str):
        return encode_basestring(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        text = format(obj, ".17g")
        # JSON has no NaN or infinity: those go out as the strings "nan", "inf", "-inf"
        return text if math.isfinite(obj) else f'"{text}"'
    if isinstance(obj, Fraction):
        return f'"{format_rational(obj)}"'  # "p/q" needs no escaping
    return None


def _write(obj, out: list[str], indent: int) -> None:
    """Append the text of a dict, list or tuple. Each leaf is formatted
    once: a container of scalars goes on one line (a dict only up to 8
    keys), otherwise one item per line."""
    if isinstance(obj, dict):
        keys = [encode_basestring(str(k)) + ": " for k in obj]
        values = list(obj.values())
        opening, closing, max_flat = "{", "}", 8
    elif isinstance(obj, (list, tuple)):
        keys = [""] * len(obj)
        values = obj
        opening, closing, max_flat = "[", "]", len(obj)
    else:
        raise TypeError(f"not JSON-serializable: {type(obj).__name__}")
    if not values:
        out.append(opening + closing)
        return
    texts = [_scalar(v) for v in values]
    if None not in texts and len(texts) <= max_flat:
        out.append(opening + ", ".join([k + t for k, t in zip(keys, texts)]) + closing)
        return
    inner = "  " * (indent + 1)
    out.append(opening + "\n")
    last = len(values) - 1
    for idx, (key, value, text) in enumerate(zip(keys, values, texts)):
        out.append(inner + key)
        if text is None:
            _write(value, out, indent + 1)
        else:
            out.append(text)
        out.append(",\n" if idx < last else "\n")
    out.append("  " * indent + closing)


def dumps(obj) -> str:
    """Serialize to deterministic, human-readable JSON text."""
    text = _scalar(obj)
    if text is not None:
        return text + "\n"
    out: list[str] = []
    _write(obj, out, 0)
    out.append("\n")
    return "".join(out)


# -- reading ------------------------------------------------------------------


class FormatError(ValueError):
    """Malformed input data: an algebra document, a scenario object or a size above its bound."""


# A key rule is (kind, default, low) or (kind, default, low, high). kind is int, float
# (a finite number, read as a float), str, dict, object (anything), [kind] (a list of
# such values), [kind, low, high] (a list of such values, each within those bounds) or a
# tuple of the allowed values; default is REQUIRED for a key that must be given; low and
# high are inclusive bounds on the value, or on the length of a list, or None.
REQUIRED = object()
POSITIVE = math.ulp(0.0)  # the low bound of a number that must be above 0
_KIND_NAMES = {int: "an integer", str: "a string", list: "a list", dict: "a JSON object"}


def read_value(value, kind, label: str, low=None, high=None):
    """`value` if it keeps the rule (kind, low, high), else a FormatError
    that names it by `label`."""
    if isinstance(kind, list):
        item, *bounds = kind
        items = [read_value(x, item, f"each entry of {label}", *bounds) for x in read_value(value, list, label)]
        if low is not None and len(items) < low:
            raise FormatError(f"{label} must have at least {low} entries")
        if high is not None and len(items) > high:
            raise FormatError(f"{label} has {len(items)} entries, above the bound {high}")
        return items
    if isinstance(kind, tuple):
        ok, what = value in kind, "one of " + ", ".join(map(repr, kind))
    elif kind is float:
        ok, what = type(value) in (int, float) and abs(value) <= sys.float_info.max, "a finite number"
    elif kind is int:  # bool is an int subclass, so int is checked by exact type
        ok, what = type(value) is int, _KIND_NAMES[int]
    else:  # a JSON object is any Mapping, as a library caller may pass one
        ok, what = isinstance(value, Mapping if kind is dict else kind), _KIND_NAMES.get(kind)
    if not ok:
        raise FormatError(f"{label} must be {what}, got {value!r}")
    value = float(value) if kind is float else value
    if low is not None and value < low:
        raise FormatError(f"{label} must be {'positive' if low is POSITIVE else f'at least {low}'}, got {value!r}")
    if high is not None and value > high:
        raise FormatError(f"{label} is {value!r}, above the bound {high}")
    return value


def read_object(doc, spec: dict, what: str) -> dict:
    """Every key of `spec` read from the JSON object `doc` by its rule, in
    the order of `spec`, or its default; an unknown key or a missing
    required key is a FormatError."""
    read_value(doc, dict, what)
    unknown = [key for key in doc if key not in spec]
    if unknown:
        raise FormatError(f"unknown key {unknown[0]!r} in {what}; allowed: {', '.join(spec)}")
    values = {}
    for key, (kind, default, *bounds) in spec.items():
        if key in doc:
            values[key] = read_value(doc[key], kind, f"{key!r} in {what}", *bounds)
        elif default is REQUIRED:
            raise FormatError(f"{what} is missing {key!r}")
        else:
            values[key] = default
    return values
