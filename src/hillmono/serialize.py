"""Deterministic text output helpers.

All floating-point values are printed with 17 significant digits so that
doubles round-trip exactly through text and identical inputs produce
byte-identical files. The JSON emitter is an explicit walk instead of
json.dumps because the stdlib encoder offers no hook over float formatting.
A list, tuple or 1-D float array whose items are all floats is written with
one "%.17g" template applied to all of them at once: "%" and format() print
a double through the same CPython routine, so the bytes are those of
fmt_float item by item. Every other sequence is walked item by item.
"""

import json
import math

import numpy as np

from .errors import DomainError

_FLOAT_TYPES = frozenset((float, np.float64))
_NON_FINITE = "refusing to serialize a non-finite value"


def fmt_float(x):
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(_NON_FINITE)
    return format(x, ".17g")


def _fill(template, values):
    """template % values for "%.17g" fields, refusing non-finite values.

    A finite double prints as digits, sign, point and exponent only; an
    infinity or a NaN prints as "inf" or "nan", so one scan of the text for
    an "n" finds them all.
    """
    text = template % values
    if "n" in text:
        raise DomainError(_NON_FINITE)
    return text


def _float_items(obj):
    """The items of a list, tuple or 1-D float array as a tuple of floats,
    or None when some item is not a float."""
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype.kind == "f":
            return tuple(obj.astype(float, copy=False).tolist())
        return None
    if set(map(type, obj)) <= _FLOAT_TYPES:
        return tuple(obj)
    return None


def fmt_csv_rows(rows):
    """Comma separated 17-digit lines, one per row of a 2-D float array."""
    rows = np.asarray(rows, dtype=float)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return _fill(line * rows.shape[0], tuple(rows.ravel().tolist()))


def _emit(obj, indent):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f"{inner}{json.dumps(str(k))}: {_emit(v, indent + 1)}"
                 for k, v in obj.items())
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        floats = _float_items(obj)
        if floats:
            field = "%.17g"
            body = field + (",\n" + inner + field) * (len(floats) - 1)
            return _fill("[\n" + inner + body + "\n" + pad + "]", floats)
        seq = [_emit(v, indent + 1) for v in obj]
        if not seq:
            return "[]"
        return "[\n" + ",\n".join(inner + s for s in seq) + "\n" + pad + "]"
    raise DomainError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj):
    """JSON text with floats at 17 significant digits, newline terminated."""
    return _emit(obj, 0) + "\n"


def write_json(obj, path):
    with open(path, "w") as fh:
        fh.write(dumps_json(obj))


def read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read JSON file {path}: {exc}") from None
