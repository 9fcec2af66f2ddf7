"""Deterministic float-exact JSON serialization."""

import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hillmono import (DomainError, Potential, dumps_json, fmt_float,
                      load_curve_csv, orbit_to_dict, read_json,
                      synthesize_orbit, write_json)
from hillmono import serialize
from hillmono.serialize import _float_chunks, fmt_csv_rows, write_text


def test_fmt_float_round_trips_doubles():
    for x in (1.0 / 3.0, math.pi, 1e-300, -2.5e17, 0.1 + 0.2):
        assert float(fmt_float(x)) == x


def test_fmt_float_rejects_non_finite():
    with pytest.raises(DomainError):
        fmt_float(float("nan"))
    with pytest.raises(DomainError):
        fmt_float(float("inf"))


def test_dumps_structure():
    text = dumps_json({"a": [1, 2.5], "b": None, "c": True, "d": "x"})
    assert text.endswith("\n")
    assert '"a"' in text and "2.5" in text and "null" in text


def test_dumps_empty_containers():
    assert dumps_json({}) == "{}\n"
    assert dumps_json([]) == "[]\n"


def test_json_file_roundtrip(tmp_path):
    path = tmp_path / "data.json"
    obj = {"values": [math.pi, 1e-17], "name": "curve", "count": 3,
           "samples": np.linspace(-1.0, 1.0, 1025) ** 3}
    write_json(obj, path)
    back = read_json(path)
    assert back["values"] == obj["values"]
    assert back["samples"] == obj["samples"].tolist()
    assert back["name"] == "curve" and back["count"] == 3


def test_read_json_errors(tmp_path):
    with pytest.raises(DomainError):
        read_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    with pytest.raises(DomainError):
        read_json(bad)
    # Each of these used to escape read_json as a bare UnicodeDecodeError,
    # ValueError or RecursionError.
    for name, data in (("latin1.json", b'["caf\xe9"]'),
                       ("digits.json", b"1" * 5000),
                       ("deep.json", b"[" * 100000 + b"]" * 100000)):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(DomainError, match="^cannot read ") as info:
            read_json(path)
        assert str(info.value).count("cannot read") == 1
    path = tmp_path / "curve.csv"
    path.write_bytes(b"t,v1,v2,v1p,v2p\n0,1,0,0,\xff\n")
    with pytest.raises(DomainError, match="not UTF-8"):
        load_curve_csv(path)


def test_write_text_names_the_unwritable_path(tmp_path, capsys):
    missing = tmp_path / "missing-dir" / "out.json"
    for write in (lambda: write_json([1.0], missing),
                  lambda: write_text("x\n", missing)):
        with pytest.raises(DomainError) as info:
            write()
        assert str(info.value) == \
            f"cannot write {missing}: No such file or directory"
    write_text("to stdout\n", "-")
    assert capsys.readouterr().out == "to stdout\n"


def test_identical_inputs_identical_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    obj = {"x": [0.1, 0.2, 0.30000000000000004]}
    write_json(obj, a)
    write_json(obj, b)
    assert a.read_bytes() == b.read_bytes()


def _walk(values, indent):
    """A float sequence as the item-by-item walk writes it."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    return ("[\n" + ",\n".join(inner + fmt_float(v) for v in values)
            + "\n" + pad + "]")


def _bits_to_float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_edge_floats = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    float(2 ** 53 - 1), float(2 ** 53), float(2 ** 53 + 2), -float(2 ** 53 - 1),
    1e16, 1e17, -1e17, 1e16 - 2.0, 1.7976931348623157e308, 0.1, 1.0 / 3.0])
_finite_floats = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(_bits_to_float).filter(math.isfinite),
    st.floats(allow_nan=False, allow_infinity=False),
    _edge_floats)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_finite_floats, min_size=1, max_size=40),
       st.sampled_from(["list", "tuple", "float64 items", "array"]))
def test_float_sequences_match_the_item_walk(values, form):
    obj = {"list": values, "tuple": tuple(values),
           "float64 items": [np.float64(v) for v in values],
           "array": np.array(values)}[form]
    assert dumps_json(obj) == _walk(values, 0) + "\n"
    assert dumps_json({"x": obj}) == '{\n  "x": ' + _walk(values, 1) + "\n}\n"


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(_finite_floats, min_size=3, max_size=3), min_size=1,
                max_size=5))
def test_two_dimensional_arrays_match_the_item_walk(rows):
    arr = np.array(rows)
    expected = ("[\n" + ",\n".join("  " + _walk(r, 1) for r in arr.tolist())
                + "\n]\n")
    assert dumps_json(arr) == expected
    lines = "".join(",".join(fmt_float(v) for v in r) + "\n" for r in arr.tolist())
    assert fmt_csv_rows(arr) == lines


def test_mixed_sequences_keep_their_bytes():
    assert dumps_json([1.5, True, 3, 2 ** 70, None, -0.0]) == (
        "[\n  1.5,\n  true,\n  3,\n  1180591620717411303424,\n  null,\n  -0\n]\n")
    doc = {"a": [[1.0, 2.0], [3, np.float64(4.0)]], "b": (np.int64(7), 0.25),
           "c": np.array([1, 2]), "d": np.array([True, False]),
           "e": [np.float32(0.1)]}
    assert dumps_json(doc) == (
        '{\n  "a": [\n    [\n      1,\n      2\n    ],\n    [\n      3,\n'
        '      4\n    ]\n  ],\n  "b": [\n    7,\n    0.25\n  ],\n'
        '  "c": [\n    1,\n    2\n  ],\n  "d": [\n    true,\n    false\n  ],\n'
        '  "e": [\n    0.10000000149011612\n  ]\n}\n')


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("where", [0, 50_000, 99_999])
def test_non_finite_items_are_refused(bad, where):
    values = np.linspace(-1.0, 1.0, 100_000)
    values[where] = bad
    for obj in (values, {"samples": values}, {"samples": values.tolist()},
                values.reshape(1000, 100)):
        with pytest.raises(DomainError, match="non-finite"):
            dumps_json(obj)
    with pytest.raises(DomainError, match="non-finite"):
        fmt_csv_rows(values.reshape(20_000, 5))
    # Short arrays take the same kernel.
    for count in (1, 3, 1023):
        short = np.linspace(-1.0, 1.0, count)
        short[where * count // values.size] = bad
        for obj in (short, {"samples": short}, short.reshape(1, count)):
            with pytest.raises(DomainError, match="non-finite"):
                dumps_json(obj)
        for rows in (short.reshape(1, count), short.reshape(count, 1)):
            with pytest.raises(DomainError, match="non-finite"):
                fmt_csv_rows(rows)


# ---------------------------------------------------------------------------
# The numpy kernel against CPython's "%.17g"
# ---------------------------------------------------------------------------

def _kernel(values, seps):
    return "".join(_float_chunks(np.asarray(values, dtype=float), seps))


def _template(values, seps):
    """The "%.17g" fields, value i followed by seps[i % len(seps)] except
    the last."""
    fields = ["%.17g" % v for v in values]
    for i in range(len(fields) - 1):
        fields[i] += seps[i % len(seps)]
    return "".join(fields)


def _assert_same_text(got, expected):
    if got == expected:
        return
    bad = [(i, a, b) for i, (a, b) in
           enumerate(zip(got.splitlines(), expected.splitlines())) if a != b]
    pytest.fail(f"{len(bad)} lines differ, first ones (line, got, "
                f"expected): {bad[:5]}; lengths {len(got)}, {len(expected)}")


_SEPS = [("\n",), (",\n    ",), (",", ",", ",", ",", "\n")]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(_finite_floats, max_size=60), st.sampled_from(_SEPS),
       st.sampled_from([1, 2, 5, 7, 8192]))
def test_kernel_matches_the_template_at_every_length(values, seps, chunk):
    values = values[:len(values) - len(values) % len(seps)]
    # Small chunks send short inputs through the joins between chunks.
    with mock.patch.object(serialize, "CHUNK_ITEMS", chunk):
        assert _kernel(values, seps) == _template(values, seps)


def _sweep():
    """About 1.28 million seeded doubles, by family."""
    rng = np.random.default_rng(20261019)
    ten = [float(f"1e{k}") for k in range(-323, 309)]
    five = [float(f"5e{k}") for k in range(-324, 308)]
    around = [math.nextafter(v, to) for v in ten + five
              for to in (0.0, math.inf)]
    patterns = rng.integers(0, 2 ** 64, 400_000, dtype=np.uint64).view(float)
    return {
        "bit patterns": patterns[np.isfinite(patterns)],
        "lognormal magnitudes": (rng.lognormal(0.0, 30.0, 200_000)
                                 * rng.choice([-1.0, 1.0], 200_000)),
        # m * 2**-k with 2**52 <= m < 2**53 has up to 19 significant
        # digits; some of them end in a 5 just past the 17th, exact ties.
        "tie candidates": (rng.integers(2 ** 52, 2 ** 53, 200_000)
                           / 2.0 ** rng.integers(0, 4, 200_000)),
        "powers of ten and their neighbours": np.array(ten + five + around),
        "three-digit exponents": (10.0 ** rng.uniform(-307.0, 308.0, 100_000)
                                  * rng.choice([-1.0, 1.0], 100_000)),
        "1e16 and 1e17 boundaries": np.concatenate([
            1e16 + 2.0 * np.arange(-20_000, 20_000),
            1e17 + 16.0 * np.arange(-20_000, 20_000)]),
        "multiples of 1/8": np.arange(-100_000, 100_000) / 8.0,
        "subnormals": (rng.integers(1, 2 ** 52, 100_000, dtype=np.uint64)
                       .view(float) * rng.choice([-1.0, 1.0], 100_000)),
        "zeros and extremes": np.array([
            0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
            2.2250738585072014e-308, 1.7976931348623157e308,
            -1.7976931348623157e308]),
    }


def test_kernel_matches_the_template_on_a_million_doubles():
    families = _sweep()
    assert sum(map(len, families.values())) >= 10 ** 6
    # The tie candidates reach the CPython fallback.
    assert serialize._decimals(np.abs(families["tie candidates"]))[2].any()
    for name, values in families.items():
        text = _kernel(values, ("\n",))
        _assert_same_text(text, "\n".join(["%.17g" % v for v in values.tolist()]))


def _long_values(count):
    rng = np.random.default_rng(count)
    values = rng.standard_normal(count) * 10.0 ** rng.integers(-30, 30, count)
    values[::101] = np.round(values[::101], 2)
    values[1::211] = 0.0
    values[2::307] = -0.0
    return values.tolist()


@pytest.mark.parametrize("count", [219, 220, 1023, 1024,
                                   3 * serialize.CHUNK_ITEMS + 7])
@pytest.mark.parametrize("form", ["list", "tuple", "float64 items", "array"])
def test_long_float_sequences_match_the_item_walk(count, form):
    values = _long_values(count)
    obj = {"list": values, "tuple": tuple(values),
           "float64 items": [np.float64(v) for v in values],
           "array": np.array(values)}[form]
    _assert_same_text(dumps_json(obj), _walk(values, 0) + "\n")
    _assert_same_text(dumps_json({"x": obj, "n": 1}),
                      '{\n  "x": ' + _walk(values, 1) + ',\n  "n": 1\n}\n')


def test_value_type_dicts_match_the_item_walk():
    # to_dict and orbit_to_dict hand their read-only arrays to the writer.
    values = _long_values(1025)
    q = Potential.sampled(values)
    _assert_same_text(dumps_json(q.to_dict()),
                      '{\n  "kind": "sampled",\n  "samples": '
                      + _walk(values, 1) + ',\n  "interp": "cubic"\n}\n')
    orbit = synthesize_orbit(2.0, 1.0, 0.5).sample()
    fields = "".join(f',\n  "{name}": ' + _walk(getattr(orbit, name).tolist(), 1)
                     for name in ("rho", "rho_prime", "rho_second"))
    _assert_same_text(dumps_json(orbit_to_dict(orbit)),
                      '{\n  "theta_max": ' + fmt_float(orbit.theta_max)
                      + fields + "\n}\n")


@pytest.mark.parametrize("rows", [203, 205, serialize.CHUNK_ITEMS + 3])
def test_long_csv_rows_match_the_item_walk(rows):
    arr = np.array(_long_values(5 * rows)).reshape(rows, 5)
    lines = "".join(",".join(fmt_float(v) for v in r) + "\n"
                    for r in arr.tolist())
    _assert_same_text(fmt_csv_rows(arr), lines)
