"""Deterministic JSON emission, the one reader of JSON input, and the
writer of every report.

Reports must be byte-identical across runs with the same inputs, so we
write JSON ourselves: insertion-ordered keys, rationals as "p/q" texts
(`rational_row`), floats printed with 17 significant digits (a
non-finite float as the string "nan", "inf" or "-inf").

Every JSON document read, an algebra or a scenario, is read object by
object through a key table (`read_object`), so types, defaults and
bounds are checked by the same rules everywhere.

The verbs' handlers end in the helpers at the end: an input error (one
`error:` line, exit 2), the --output check, the writer of a report (its
"status", exit 0 or 1), a violation with no report (one line, exit 1),
and the reader of a JSON file, the one place `json` is imported.
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Iterable, Mapping

from . import __version__

try:  # the C function that json.encoder.encode_basestring is, without importing json
    from _json import encode_basestring
except ImportError:  # an interpreter built without the accelerator
    from json.encoder import encode_basestring

__all__ = ["format_rational", "rational_row", "parse_rational", "dumps", "FormatError", "REQUIRED", "POSITIVE",
           "read_int", "read_value", "read_object"]


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def rational_row(pairs, ncols: int) -> list[str]:
    """A row of `ncols` entries given by its (column, value) pairs, as "p/q" texts: "0/1" elsewhere."""
    out = ["0/1"] * ncols
    for j, x in pairs:
        out[j] = format_rational(x)
    return out


def parse_rational(s: str) -> Fraction:
    """The rational that `s` writes as "p/q" or as "p" alone, p and q read
    by `read_int`: p may start with "-", and q is at least 1."""
    if not isinstance(s, str):
        raise ValueError(f"rational must be a string, got {_quoted(s)}")
    num, sep, den = s.partition("/")
    try:
        n = read_int(num, "its numerator", None)
        d = read_int(den, "its denominator", 1) if sep else 1
    except FormatError as exc:
        raise FormatError(f"malformed rational {_quoted(s)}: {exc}") from None
    from fractions import Fraction

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
    return None


def _append(obj, out: list[str], indent: int) -> None:
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
            _append(value, out, indent + 1)
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
    _append(obj, out, 0)
    out.append("\n")
    return "".join(out)


# -- reading ------------------------------------------------------------------


def _quoted(value, limit: int = 100) -> str:
    """repr(value) as an error line quotes it: its first `limit` characters
    and "..." when it is longer. A list or dict is written a piece at a
    time, so the text stops where it passes `limit`, however long or deeply
    nested the value; a shorter value reads as repr writes it. An integer
    longer than `limit` digits is cut by dividing it, so one past the
    interpreter's digit limit is quoted too."""
    def pieces(value):
        if type(value) is int and value.bit_length() > 4 * limit:  # more than `limit` digits: the leading ones
            yield "-" * (value < 0) + str(abs(value) // 10 ** ((value.bit_length() - 1) * 301 // 1000 - limit))
        elif type(value) is list:
            yield "["
            for k, item in enumerate(value):
                yield ", " if k else ""
                yield from pieces(item)
            yield "]"
        elif type(value) is dict:
            yield "{"
            for k, (key, item) in enumerate(value.items()):
                yield (", " if k else "") + repr(key) + ": "
                yield from pieces(item)
            yield "}"
        else:
            yield repr(value)

    text = ""
    for piece in pieces(value):
        text += piece
        if len(text) > limit:
            return text[:limit] + "..."
    return text


class FormatError(ValueError):
    """Malformed input: a command-line value, a catalog key, an algebra
    document, a scenario object or a size above its bound."""


def read_int(text: str, label: str, low: int | None = 0, high: int | None = None) -> int:
    """The integer that outside text writes: a command-line value, the size
    in a catalog key, or p or q of a rational. It is ASCII digits alone,
    after a "-" only where `low` is None, within the inclusive bounds `low`
    and `high` (checked by `read_value`); else a FormatError names it by
    `label` and quotes it. The length is checked first: no value is built
    with more digits than the interpreter converts
    (`sys.get_int_max_str_digits()`), so every value read can be written."""
    negative = low is None and text[:1] == "-"
    digits = text[1:] if negative else text
    if not (digits.isascii() and digits.isdigit()):
        what = "an integer" if low is None else "a nonnegative integer"
        raise FormatError(f"{label} must be {what} in ASCII digits, got {_quoted(text)}")
    digits = digits.lstrip("0") or "0"  # a leading zero counts toward the interpreter's limit
    limit = sys.get_int_max_str_digits()
    if 0 < limit < len(digits):
        raise FormatError(f"{label} is {_quoted(text)}, longer than {limit} digits")
    return read_value(-int(digits) if negative else int(digits), int, label, low, high)


# A key rule is (kind, default, low) or (kind, default, low, high). kind is int, float
# (a finite number, read as a float), str, dict, object (anything), [kind] (a list of
# such values), [kind, low, high] (a list of such values, each within those bounds) or a
# tuple of the allowed values; default is REQUIRED for a key that must be given; low and
# high are inclusive bounds on the value, or on the length of a list, or None.
REQUIRED = object()
POSITIVE = math.ulp(0.0)  # the low bound of a number that must be above 0
_KIND_NAMES = {int: "an integer", str: "a string", list: "a list", dict: "a JSON object"}


def _read_scalars(values: list, kind, low=None, high=None) -> list | None:
    """The entries of `values` read by the rule (kind, low, high) for kind
    int or float, checked in one pass over the list; None when some entry
    breaks the rule, or for any other kind."""
    if kind is int and set(map(type, values)) <= {int}:
        items = list(values)
    elif kind is float and set(map(type, values)) <= {int, float} and all(abs(x) <= sys.float_info.max for x in values):
        items = list(map(float, values))
    else:
        return None
    if items and ((low is not None and min(items) < low) or (high is not None and max(items) > high)):
        return None
    return items


def read_value(value, kind, label: str, low=None, high=None):
    """`value` if it keeps the rule (kind, low, high), else a FormatError
    that names it by `label`."""
    if isinstance(kind, list):
        item, *bounds = kind
        values = read_value(value, list, label)
        items = _read_scalars(values, item, *bounds)
        if items is None:  # some entry breaks the rule: the first one is named
            items = [read_value(x, item, f"each entry of {label}", *bounds) for x in values]
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
        raise FormatError(f"{label} must be {what}, got {_quoted(value)}")
    value = float(value) if kind is float else value
    if low is not None and value < low:
        bound = "positive" if low is POSITIVE else f"at least {low}"
        raise FormatError(f"{label} must be {bound}, got {_quoted(value)}")
    if high is not None and value > high:
        raise FormatError(f"{label} is {_quoted(value)}, above the bound {high}")
    return value


def read_object(doc, spec: dict, what: str) -> dict:
    """Every key of `spec` read from the JSON object `doc` by its rule, in
    the order of `spec`, or its default; an unknown key or a missing
    required key is a FormatError."""
    read_value(doc, dict, what)
    unknown = [key for key in doc if key not in spec]
    if unknown:
        raise FormatError(f"unknown key {_quoted(unknown[0])} in {what}; allowed: {', '.join(spec)}")
    values = {}
    for key, (kind, default, *bounds) in spec.items():
        if key in doc:
            values[key] = read_value(doc[key], kind, f"{key!r} in {what}", *bounds)
        elif default is REQUIRED:
            raise FormatError(f"{what} is missing {key!r}")
        else:
            values[key] = default
    return values


# -- the verbs' input and output -------------------------------------------------------


def _input_error(message: str) -> None:
    sys.stderr.write(f"error: {message}\n")
    sys.exit(2)


def _check_output(path: str) -> None:
    """An input error unless the --output file `path` can be written, found
    before the verb runs and without opening the file, so an existing file
    is left as it is when the verb then fails; `_write` reports the rest."""
    if os.path.isdir(path):
        _input_error(f"cannot write {path}: it is a directory")
    if os.path.exists(path):
        if not os.access(path, os.W_OK):
            _input_error(f"cannot write {path}: the file is not writable")
        return
    parent = os.path.dirname(path) or os.curdir
    if not os.path.isdir(parent):
        _input_error(f"cannot write {path}: no directory {parent}")
    if not os.access(parent, os.W_OK):
        _input_error(f"cannot write {path}: directory {parent} is not writable")


def _write(ctx_obj: dict, chunks: Iterable[str]) -> None:
    """Write the strings `chunks`, as they come, to the --output file, or to
    stdout without one."""
    path = ctx_obj.get("output")
    if path:
        try:
            with open(path, "w") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            _input_error(f"cannot write {path}: {exc}")
    else:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except OSError as exc:  # a closed pipe, a full disk
            # the interpreter flushes stdout again at exit, and a second failure
            # there would turn exit 2 into 120: send what is left to os.devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            _input_error(f"cannot write stdout: {exc}")


def _emit(ctx_obj: dict, command: str, body: dict, ok: bool, tolerances: dict | None = None) -> None:
    """Write the JSON report of `command`: tool, command, seed, tolerances (if
    any), body and its "status", then end the verb: exit 0 when `ok`, else 1."""
    head = {
        "tool": {"name": "lieactions", "version": __version__},
        "command": command,
        "seed": ctx_obj["seed"],
    }
    if tolerances:
        head["tolerances"] = tolerances
    head.update(body)
    head["status"] = "pass" if ok else "fail"
    _write(ctx_obj, [dumps(head)])
    sys.exit(0 if ok else 1)


def _violation(message: str) -> None:
    """A violation found with no report to write: one line on stderr, exit 1."""
    sys.stderr.write(f"{message}\n")
    sys.exit(1)


def _unique_keys(pairs: list) -> dict:
    """object_pairs_hook: a key given twice in one object is malformed JSON
    here, not a silent last-one-wins."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {_quoted(key)}")
        obj[key] = value
    return obj


def _json_file(path: str):
    import json

    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        _input_error(f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:  # malformed JSON, bytes that are not UTF-8, or nested too deep
        _input_error(f"malformed JSON in {path}: {exc}")
