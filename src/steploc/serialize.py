"""Deterministic text output helpers.

Every float is printed with 17 significant digits so that emitted CSV and
JSON round-trip bit-exactly and identical runs produce identical bytes.
Non-finite floats appear as quoted strings in JSON (which has no literal
for them) and as bare ``inf`` / ``nan`` tokens in CSV.
"""

from __future__ import annotations

import json
import math

__all__ = ["fmt_float", "json_dumps"]

# A JSON string literal (RFC 8259 §7); non-ASCII characters stay as they are.
_quote = json.JSONEncoder(ensure_ascii=False).encode


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def json_dumps(obj) -> str:
    """JSON with insertion-ordered keys and 17-significant-digit floats."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj) if math.isfinite(obj) else f'"{fmt_float(obj)}"'
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{_quote(str(k))}: {json_dumps(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(json_dumps, obj)) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}: {obj!r}")
