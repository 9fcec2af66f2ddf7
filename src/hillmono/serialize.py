"""Deterministic text output helpers, and the package's file I/O.

All floating-point values are printed with 17 significant digits so that
doubles round-trip exactly through text and identical inputs produce
byte-identical files. The JSON emitter is an explicit walk instead of
json.dumps because the stdlib encoder offers no hook over float formatting.

A list or a tuple is walked item by item. A float sequence (a 1-D float
array, or the rows of a CSV) is written in one call to _float_chunks,
which computes with numpy the bytes that fmt_float gives item by item.
CPython prints 17 digits through the exact big-integer branch of its dtoa
(Gay 1990), because they exceed the 14 digits of its floating-point fast
path; _float_chunks computes the same digits with double-double arithmetic
(Dekker 1971).

How _float_chunks gets the digits right. Write |x| = f * 2**e with f in
[0.5, 1). The decimal exponent p that puts y = |x| / 10**p in [1e16, 1e17)
is fixed by e and by one comparison of |x| with the smallest double at or
above a power of ten. The scale 2**e / 10**p is stored as a pair of doubles
(hi + lo), built from Python ints: int / int true division rounds
correctly, and the pair holds the scale to about 2**-106 relatively. The
product f * hi is split exactly (Dekker's two-product), f * lo is added, and
the sum is renormalised into yh + yl, with yh an integer-valued double
(y > 2**53). The error of yh + yl against the exact y is below 1e-13, so
rounding it to the nearest integer gives the 17 digits "%.17g" prints,
unless the fraction of y lies within TIE_MARGIN of 1/2: such a value, an
exact decimal tie among them, is printed by CPython instead. On smooth
sampled data about one value in 500,000 takes that path. The table of
pairs is allocated at import and filled per binary exponent on first use.

How _float_chunks lays out the text. A chunk of CHUNK_ITEMS values is
written into a byte matrix with one column per value and one row per
character slot: separator, sign, the "0.000" of small fixed-point values,
the digits with a possible point after each one, and the exponent. Slots a
value does not use hold a zero byte; slots no value of the chunk uses are
left out. The matrix is read out value by value and the zero bytes are
deleted. write_json and write_csv write the chunk strings and the pieces
around them one by one, so the whole text exists once, as those pieces,
and is never joined or encoded whole; dumps_json and fmt_csv_rows return
the join of the same pieces. Every piece is made before the output file
is opened, so a value that cannot be written leaves the file untouched.

Every file the package reads or writes goes through read_text and the
writers here, which turn a failure into DomainError; read_json parses on
top of read_text, and maps every way a text can fail to be JSON the same
way.
"""

import json
import math
import sys

import numpy as np

from .errors import DomainError

_NON_FINITE = "refusing to serialize a non-finite value"

# Values per pass. A pass holds about 6 MB of byte matrix and temporaries.
# On a 524289-sample potential, 16384 to 32768 were the fastest chunk sizes
# (4096: 1.25x slower, 65536: 1.2x slower). Smaller chunks leave more freed
# heap behind in small pieces: with 8192, a stiff synthesize run after
# another peaked at 232.6 MB resident instead of 218.7 MB.
CHUNK_ITEMS = 32768

# Fractions of y this close to 1/2 are left to CPython; the double-double
# error is below 1e-13.
TIE_MARGIN = 2.0 ** -20

_E_MIN = -1073            # np.frexp exponent of the smallest subnormal
_E_COUNT = 1024 - _E_MIN + 1
_SPLITTER = 134217729.0   # 2**27 + 1: Veltkamp's split into 26-bit halves

_ZERO, _POINT, _MINUS, _PLUS, _E = b"0.-+e"


def fmt_float(x):
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(_NON_FINITE)
    return format(x, ".17g")


# ---------------------------------------------------------------------------
# Exact 17-digit decimals in double-double arithmetic
# ---------------------------------------------------------------------------

def _ratio(e, p):
    """2**e / 10**p as a pair of Python ints."""
    num = (1 << max(e, 0)) * 10 ** max(-p, 0)
    den = (1 << max(-e, 0)) * 10 ** max(p, 0)
    return num, den


def _at_least(num, den):
    """The smallest double at or above num / den (inf beyond the range)."""
    try:
        near = num / den
    except OverflowError:
        return math.inf
    a, b = near.as_integer_ratio()
    return near if a * den >= num * b else math.nextafter(near, math.inf)


# Per binary exponent e of np.frexp, a row each: the decimal exponent k of
# the leading digit of 2**(e-1), the smallest double at or above 10**(k+1),
# and for p = k-16 and p = k-15 the scale 2**e / 10**p as hi + lo, with hi
# split into 26-bit halves. The rows are filled by _fill_row the first time
# a value with that exponent is printed. The arrays are allocated at
# import: taken from malloc at the end of a large command, they could sit
# on top of the heap and keep the freed memory below them from being
# reused (a later stiff synthesize peaked at up to 222.1 MB resident
# instead of 218.9 MB).
_pairs = np.zeros((2 * _E_COUNT, 4))
_threshold = np.zeros(_E_COUNT)
_lead = np.zeros(_E_COUNT, np.int64)
_filled = np.zeros(_E_COUNT, bool)


def _ensure(idx):
    """Fill the rows of the table indices idx that are still empty."""
    lo, hi = int(idx.min()), int(idx.max())
    if _filled[lo:hi + 1].all():
        return
    seen = np.zeros(hi - lo + 1, bool)
    seen[idx - lo] = True
    for i in (np.flatnonzero(seen & ~_filled[lo:hi + 1]) + lo).tolist():
        _fill_row(i)


def _fill_row(i):
    e = i + _E_MIN
    # The leading digit of 2**m is at 10**k: 2**m has k + 1 digits for
    # m >= 0, and 2**m = 5**-m * 10**m for m < 0.
    m = e - 1
    k = len(str(1 << m)) - 1 if m >= 0 else len(str(5 ** -m)) - 1 + m
    _lead[i] = k
    _threshold[i] = _at_least(*_ratio(0, -(k + 1)))
    for bump in (0, 1):
        num, den = _ratio(e, k - 16 + bump)
        hi = num / den
        a, b = hi.as_integer_ratio()
        lo = (num * b - a * den) / (den * b)
        s = _SPLITTER * hi
        high = s - (s - hi)
        _pairs[2 * i + bump] = (hi, high, hi - high, lo)
    _filled[i] = True


def _decimals(ax):
    """The 17-digit decimals of the positive doubles ax.

    Returns (n, lead, tie): n * 10**(lead - 16) is |x| rounded to 17
    significant digits, with 10**16 <= n < 10**17, and tie marks the values
    whose rounding is too close to call here.
    """
    f, e = np.frexp(ax)
    idx = e.astype(np.intp)
    idx -= _E_MIN
    _ensure(idx)
    bump = ax >= _threshold.take(idx)
    lead = _lead.take(idx)
    lead += bump
    idx *= 2
    idx += bump
    hi, high, low, lo = _pairs.take(idx, axis=0).T
    p = f * hi
    s = f * _SPLITTER
    fh = s - (s - f)
    fl = f - fh
    err = ((fh * high - p) + fh * low + fl * high) + fl * low
    s = err + f * lo
    yh = p + s
    yl = s - (yh - p)
    r = np.rint(yl)
    tie = np.abs(np.abs(yl - r) - 0.5) < TIE_MARGIN
    n = yh.astype(np.int64)
    n += r.astype(np.int64)
    top = n == 10 ** 17
    if top.any():
        n[top] = 10 ** 16
        lead += top
    return n, lead, tie


def _digits(n):
    """The 17 decimal digits of each n, as a (17, len(n)) uint8 array.

    Each split of a group of digits in two is a multiply and a shift, exact
    on the group's range: (v * 109951163) >> 40 == v // 10**4 for v < 10**8,
    (v * 5243) >> 19 == v // 100 for v < 10**4 and (v * 205) >> 11 == v // 10
    for v < 100.
    """
    k = len(n)
    out = np.empty((17, k), np.uint8)
    high = n // 10 ** 8
    first = high // 10 ** 8
    out[0] = first
    g = np.empty((2, k), np.int64)
    g[0] = high - first * 10 ** 8
    g[1] = n - high * 10 ** 8
    q = (g * 109951163) >> 40
    g4 = np.empty((4, k), np.int32)
    g4[0::2] = q
    g4[1::2] = g - q * 10 ** 4
    q = (g4 * 5243) >> 19
    g8 = np.empty((8, k), np.int16)
    g8[0::2] = q
    g8[1::2] = g4 - q * 100
    q = (g8 * 205) >> 11
    out[1::2] = q
    out[2::2] = g8 - q * 10
    return out


# ---------------------------------------------------------------------------
# Text layout
# ---------------------------------------------------------------------------

_RANK = np.arange(17, dtype=np.uint8)[:, None]   # digit positions, a row each
_PREFIX = np.frombuffer(b"0.000", np.uint8)[:, None]
# Text rows of a value: sign, "0.000", 17 digits with a point slot after
# each of the first 16, and "e+ddd". Its "%.17g" text is at most 24 bytes.
_SLOTS = 1 + 5 + 17 + 16 + 5


def _layout(x, b, ls):
    """Write the "%.17g" text of the chunk x into the byte matrix b below
    its ls separator rows; returns the number of rows used."""
    ax = np.abs(x)
    # A zero takes the decimals of 1.0 and then has its leading digit and
    # its exponent zeroed, which prints "0".
    zero = ax == 0.0
    has_zero = zero.any()
    if has_zero:
        ax[zero] = 1.0
    n, lead, tie = _decimals(ax)
    d = _digits(n)
    if has_zero:
        d[0][zero] = 0
        lead[zero] = 0
    # Significant digits: one past the position of the last non-zero digit.
    sig = np.max((d != 0) * (_RANK + np.uint8(1)), axis=0)
    if has_zero:
        sig[zero] = 1
    expo = (lead < -4) | (lead > 16)
    small = ~expo & (lead < 0)         # 0.000ddd
    whole = ~expo & ~small             # ddd.ddd
    shown = np.where(whole, np.maximum(sig, lead + 1), sig)
    before_point = np.where(whole, lead + 1, 1)
    # The digit the point follows, or -1 where the point comes from the
    # "0.000" prefix or there is no fraction.
    point = np.where((shown > before_point) & ~small, before_point - 1, -1)
    prefix = np.where(small, 1 - lead, 0)
    neg = np.signbit(x)
    expo_mag = np.abs(lead) * expo
    fallback = tie.any()

    row = ls
    if fallback or neg.any():
        b[row] = neg * np.uint8(_MINUS)
        row += 1
    width = 5 if fallback else int(prefix.max())
    if width:
        b[row:row + width] = _PREFIX[:width] * (np.arange(width)[:, None] < prefix)
        row += width
    d += np.uint8(_ZERO)
    d *= _RANK < shown
    points = 16 if fallback else int(point.max()) + 1
    b[row:row + 2 * points:2] = d[:points]
    b[row + 1:row + 2 * points:2] = (_RANK[:points] == point) * np.uint8(_POINT)
    row += 2 * points
    b[row:row + 17 - points] = d[points:]
    row += 17 - points
    if fallback or expo.any():
        b[row] = expo * np.uint8(_E)
        b[row + 1] = expo * np.where(lead < 0, _MINUS, _PLUS).astype(np.uint8)
        row += 2
        hundreds = expo_mag // 100
        if fallback or hundreds.any():
            b[row] = (hundreds > 0) * (hundreds + _ZERO)
            row += 1
        tens = expo_mag // 10
        b[row] = expo * (tens - 10 * hundreds + _ZERO)
        b[row + 1] = expo * (expo_mag - 10 * tens + _ZERO)
        row += 2
    if fallback:
        for i in np.flatnonzero(tie).tolist():
            text = np.frombuffer(("%.17g" % x[i]).encode(), np.uint8)
            b[ls:row, i] = 0
            b[ls:ls + len(text), i] = text
    return row


def _float_chunks(values, seps):
    """The "%.17g" text of each value followed by seps[i % len(seps)],
    except after the last, as one string per chunk.

    values is a 1-D float64 array whose length is a multiple of len(seps);
    the separators must all have the same length.
    Non-finite values raise DomainError.
    """
    count = len(values)
    if not count:
        return
    period = len(seps)
    ls = len(seps[0])
    chunks = -(-count // CHUNK_ITEMS)
    size = -(-count // (chunks * period)) * period
    # Column i of a chunk starts with the separator that precedes value i.
    b = np.empty((ls + _SLOTS, size), np.uint8)
    before = np.frombuffer("".join(seps[-1:] + seps[:-1]).encode("ascii"),
                           np.uint8).reshape(period, ls)
    b[:ls] = np.tile(before, (size // period, 1)).T
    for start in range(0, count, size):
        x = values[start:start + size]
        if not np.isfinite(x).all():
            raise DomainError(_NON_FINITE)
        cols = b[:, :len(x)]
        rows = _layout(x, cols, ls)
        text = cols[:rows].T.tobytes().translate(None, b"\0")
        yield text[ls if start == 0 else 0:].decode("ascii")


def _csv_pieces(rows):
    rows = np.asarray(rows, dtype=float)
    if not rows.size:
        return ["\n" * rows.shape[0]]
    seps = (",",) * (rows.shape[1] - 1) + ("\n",)
    return [*_float_chunks(rows.ravel(), seps), "\n"]


def fmt_csv_rows(rows):
    """Comma separated 17-digit lines, one per row of a 2-D float array."""
    return "".join(_csv_pieces(rows))


def _emit(obj, indent, out):
    """Append the JSON text of obj, nested indent levels deep, to the list
    of strings out."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        opening = "{\n"
        for k, v in obj.items():
            out.append(f"{opening}{inner}{json.dumps(str(k))}: ")
            _emit(v, indent + 1, out)
            opening = ",\n"
        out.append("\n" + pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[\n" + inner)
        if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "f":
            out.extend(_float_chunks(obj.astype(float, copy=False),
                                     (",\n" + inner,)))
        else:
            for i, v in enumerate(obj):
                if i:
                    out.append(",\n" + inner)
                _emit(v, indent + 1, out)
        out.append("\n" + pad + "]")
    else:
        raise DomainError(f"cannot serialize {type(obj).__name__}")


def _json_pieces(obj):
    out = []
    _emit(obj, 0, out)
    out.append("\n")
    return out


def dumps_json(obj):
    """JSON text with floats at 17 significant digits, newline terminated."""
    return "".join(_json_pieces(obj))


def _write_pieces(pieces, path):
    """Write the strings pieces one after another to the file at path, or
    to stdout for None or "-"."""
    if path is None or path == "-":
        for piece in pieces:
            sys.stdout.write(piece)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror}") from None


def write_text(text, path):
    """Write text to the file at path, or to stdout for None or "-"."""
    _write_pieces((text,), path)


def read_text(path):
    """The text of the UTF-8 file at path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DomainError(
            f"cannot read {path}: not UTF-8 text ({exc.reason})") from None


def write_json(obj, path):
    """Write the text of dumps_json(obj) to path as write_text does."""
    _write_pieces(_json_pieces(obj), path)


def write_csv(columns, rows, path):
    """Write a header line of the column names and the lines of
    fmt_csv_rows(rows) to path as write_text does."""
    _write_pieces([",".join(columns) + "\n", *_csv_pieces(rows)], path)


def read_json(path):
    """The JSON value in the file at path.

    Besides malformed text, the parser refuses an integer literal past
    Python's digit limit (ValueError) and nesting past the recursion limit
    (RecursionError); each is a DomainError here.
    """
    text = read_text(path)  # outside the try: DomainError is a ValueError
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DomainError(f"cannot read JSON file {path}: {exc}") from None
