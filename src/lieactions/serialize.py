"""Deterministic JSON emission.

Reports must be byte-identical across runs with the same inputs, so we
write JSON ourselves: insertion-ordered keys, rationals as "p/q"
strings, floats printed with 17 significant digits (a non-finite float
as the string "nan", "inf" or "-inf").
"""

from __future__ import annotations

import math
from fractions import Fraction
from json.encoder import encode_basestring

__all__ = ["format_rational", "parse_rational", "dumps"]


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
