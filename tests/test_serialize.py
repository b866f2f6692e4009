"""JSON serialization: round-trips, strict schemas, error paths."""

import argparse
import copy
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from findiag import (
    format_rational,
    parse_rational,
    INF,
    DiagonalSequence,
    DivergentTail,
    GeometricTail,
    SchemaError,
    SpectrumSpec,
    SymmetricMatrix,
    Verdict,
    Witness,
    decide,
    dump_decision,
    dump_json,
    dump_matrix,
    dump_sequence,
    dump_witness,
    load_json,
    parse_matrix,
    parse_matrix_document,
    parse_sequence,
    parse_witness,
)
from findiag import cli
from findiag.serialize import _band_spellings, _rational_array

from conftest import random_sequence
from random import Random

F = Fraction


def test_sequence_round_trip(dyadic):
    assert parse_sequence(dump_sequence(dyadic)) == dyadic


def test_sequence_round_trip_randomized():
    rng = Random(55)
    for _ in range(100):
        seq = random_sequence(rng)
        assert parse_sequence(dump_sequence(seq)) == seq


def test_sequence_round_trip_edge_shapes():
    shapes = [
        DiagonalSequence(B=F(1)),
        DiagonalSequence(B=F(5, 3), explicit=(F(1, 3),), zero_count=INF),
        DiagonalSequence(B=F(2), zero_tail=DivergentTail(), b_count=4),
        DiagonalSequence(B=F(1), b_tail=GeometricTail(F(1, 7), F(2, 5))),
    ]
    for seq in shapes:
        assert parse_sequence(dump_sequence(seq)) == seq


def test_dump_json_is_deterministic(dyadic):
    a = dump_json(dump_sequence(dyadic))
    b = dump_json(dump_sequence(parse_sequence(dump_sequence(dyadic))))
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a)  # well-formed


def test_parse_accepts_bare_integers():
    seq = parse_sequence({"B": 2, "explicit": [1, "1/2"]})
    assert seq.B == F(2)
    assert seq.explicit == (F(1, 2), F(1))


def test_parse_rejects_unknown_keys():
    with pytest.raises(SchemaError) as exc:
        parse_sequence({"B": "1", "bogus": 1})
    assert "bogus" in str(exc.value)


def test_parse_rejects_floats():
    with pytest.raises(SchemaError) as exc:
        parse_sequence({"B": 0.5})
    assert exc.value.path == "$.B"


def test_parse_rejects_bools():
    with pytest.raises(SchemaError) as exc:
        parse_sequence({"B": "1", "explicit": [True]})
    assert exc.value.path == "$.explicit[0]"


def test_parse_rejects_zero_denominator():
    with pytest.raises(SchemaError) as exc:
        parse_sequence({"B": "1", "explicit": ["1/0"]})
    assert "denominator" in str(exc.value)


def test_parse_rejects_negative_count():
    with pytest.raises(SchemaError) as exc:
        parse_sequence({"B": "1", "zero_count": -2})
    assert exc.value.path == "$.zero_count"


def test_parse_count_inf():
    seq = parse_sequence({"B": "1", "zero_count": "inf"})
    assert seq.zero_count is INF
    assert dump_sequence(seq)["zero_count"] == "inf"


def test_parse_tail_errors():
    with pytest.raises(SchemaError):
        parse_sequence({"B": "1", "zero_tail": {"kind": "geometric", "first": "1/4"}})
    with pytest.raises(SchemaError) as exc:
        parse_sequence(
            {"B": "1", "zero_tail": {"kind": "arithmetic", "first": "1/4", "ratio": "1/2"}}
        )
    assert exc.value.path == "$.zero_tail.kind"


def test_parse_domain_violation_becomes_schema_error():
    # entries outside [0, B] are structurally valid JSON but domain-invalid
    with pytest.raises(SchemaError):
        parse_sequence({"B": "1", "explicit": ["3/2"]})
    with pytest.raises(SchemaError):
        parse_sequence({"B": "1", "zero_tail": {"kind": "geometric", "first": "1/4", "ratio": "2"}})


def test_missing_required_key():
    with pytest.raises(SchemaError) as exc:
        parse_sequence({"explicit": []})
    assert "'B'" in str(exc.value)


def _load_spectrum(text):
    """The package's one spectrum reader, the CLI's --spectrum."""
    return cli._load_spectrum(argparse.Namespace(spectrum=text, translate=False))


def test_spectrum_round_trip():
    spec = SpectrumSpec((F(0), F(1, 4), F(1, 2), F(1)))
    assert _load_spectrum(",".join(format_rational(p) for p in spec.points)) == (spec, 0)


def test_spectrum_rejects_unsorted():
    with pytest.raises(SchemaError, match="--spectrum"):
        _load_spectrum("0,1/2,1/4,1")
    with pytest.raises(SchemaError, match="--spectrum"):
        _load_spectrum("1/4,1/2")  # must start at 0


def test_witness_round_trip():
    w = Witness((2, 1), -3)
    assert parse_witness(dump_witness(w)) == w
    assert dump_witness(w) == {"N": [2, 1], "k": -3}


def test_witness_rejects_bad_multiplicities():
    with pytest.raises(SchemaError):
        parse_witness({"N": [0], "k": 0})
    with pytest.raises(SchemaError):
        parse_witness({"N": [1], "k": "1/2"})
    with pytest.raises(SchemaError):
        parse_witness({"N": [1]})


def test_matrix_round_trip():
    arr = np.array([[1.0, 0.25], [0.25, 0.5]])
    m = SymmetricMatrix(arr, exact_diagonal=(F(1), F(1, 2)))
    out = parse_matrix(load_json(dump_json(dump_matrix(m))))
    assert np.array_equal(out.as_array(), arr)


def test_matrix_parse_rejects_asymmetry():
    with pytest.raises(SchemaError) as exc:
        parse_matrix({"dim": 2, "rows": [[0.0, 1.0], [0.5, 0.0]]})
    assert "symmetric" in str(exc.value)


def test_matrix_parse_rejects_bool_entry_at_its_path():
    with pytest.raises(SchemaError) as exc:
        parse_matrix(load_json('{"dim": 2, "rows": [[0.0, 1], [1, true]]}'))
    assert exc.value.path == "$.rows[1][1]"


@pytest.mark.parametrize(
    "text, path",
    [
        ('[[Infinity, 0.0], [0.0, 1.0]]', "$.rows[0][0]"),
        ('[[0.0, -Infinity], [-Infinity, 1.0]]', "$.rows[0][1]"),
        ('[[0.0, 0.0], [0.0, NaN]]', "$.rows[1][1]"),
    ],
)
def test_matrix_parse_rejects_non_finite_entry_at_its_path(text, path):
    with pytest.raises(SchemaError) as exc:
        parse_matrix(load_json('{"dim": 2, "rows": %s}' % text))
    assert exc.value.path == path


def _stdlib_text(payload):
    """What dump_json must write: json.dumps with every matrix as float lists."""
    def plain(o):
        if isinstance(o, SymmetricMatrix):
            return o.as_array().tolist()
        raise TypeError(type(o).__name__)

    return json.dumps(payload, indent=2, sort_keys=True, default=plain) + "\n"


@pytest.mark.parametrize(
    "rows",
    [
        np.zeros((0, 0)),
        [[0.5]],
        [[1.0, 0.25], [0.25, -3.0]],
        [[-0.0, 5e-324, 1e16], [5e-324, 1e-5, -2.5], [1e16, -2.5, -1e-300]],
        [[0.0, 0.0], [-0.0, 1.0]],  # 0.0 opposite -0.0: each entry is written from its own bits
        [[1.7976931348623157e308, 1.0], [1.0, -1.7976931348623157e308]],  # largest finite floats
        np.asfortranarray([[1e-5, 2.5, 0.1], [2.5, -1e17, 3e-300], [0.1, 3e-300, 7.0]]),
    ],
)
def test_matrix_rows_match_stdlib_bytes(rows):
    m = SymmetricMatrix(rows)
    assert dump_json(dump_matrix(m)) == _stdlib_text(dump_matrix(m))


def test_realize_shaped_payload_matches_stdlib_bytes():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((9, 9)) * 10.0 ** rng.integers(-8, 8, (9, 9))
    m = SymmetricMatrix(np.triu(a) + np.triu(a, 1).T)
    payload = {
        "matrix": dump_matrix(m),
        "diagonal_exact": ["1/2", "1/4"],
        "report": {"eigenvalues": [0.5, -1e-17], "within_tolerance": True},
        "translation": "1/4",
        "pair": [dump_matrix(SymmetricMatrix([[2.0]])), {"rows": m}],
    }
    assert dump_json(payload) == _stdlib_text(payload)
    assert dump_json(m) == _stdlib_text(m)


def _symmetric(values) -> np.ndarray:
    """The smallest symmetric matrix whose upper triangle, row by row, starts
    with values (zeros after them); each lower entry is its mirror's bits."""
    values = np.asarray(values, dtype=float)
    n = next(n for n in range(len(values) + 1) if n * (n + 1) // 2 >= len(values))
    upper = np.zeros(n * (n + 1) // 2)
    upper[: len(values)] = values
    a = np.zeros((n, n))
    a[np.triu_indices(n)] = upper
    return np.where(np.triu(np.ones((n, n), dtype=bool)), a, a.T)


def _assert_stdlib_bytes(a: np.ndarray):
    m = SymmetricMatrix(a)
    for payload in (dump_matrix(m), {"z": [{"matrix": dump_matrix(m)}]}):  # two indents
        assert dump_json(payload) == _stdlib_text(payload)


_FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@settings(max_examples=300, deadline=None)
@given(st.lists(_FINITE, max_size=28), st.booleans())
def test_matrix_rows_match_stdlib_bytes_for_any_finite_floats(values, flip_lower_zeros):
    """Arbitrary finite entries, subnormals included; with flip_lower_zeros
    every zero below the diagonal changes sign, so 0.0 faces -0.0 and the
    matrix is symmetric by value but not bitwise."""
    a = _symmetric(values)
    if flip_lower_zeros:
        lower = np.tril(a == 0, -1)
        a[lower] = np.copysign(0.0, -np.copysign(1.0, a[lower]))
    _assert_stdlib_bytes(a)


def _ulps_around(values, ulps: int) -> np.ndarray:
    """The finite doubles within ulps steps of each value, both signs."""
    bits = np.asarray(values, dtype=float).view(np.int64)[:, None] + np.arange(-ulps, ulps + 1)
    near = bits[bits >= 0].view(np.float64)
    near = near[np.isfinite(near)]
    return np.concatenate([near, -near])


def test_matrix_rows_match_stdlib_bytes_around_every_power_of_ten():
    """±10^e for e = -323..308, each ±3 ulps: every decimal exponent that
    json.dumps and the fast formatter could spell differently."""
    _assert_stdlib_bytes(_symmetric(_ulps_around([float(f"1e{e}") for e in range(-323, 309)], 3)))


@pytest.mark.parametrize("edge", [1e-9, 1e-4, 1e16])
def test_matrix_rows_match_stdlib_bytes_at_the_respelled_band_edges(edge):
    """The doubles on both sides of each edge of the magnitudes whose fast
    spelling differs from float.__repr__ (1e-9 <= |v| < 1e-4, |v| >= 1e16)."""
    _assert_stdlib_bytes(_symmetric(_ulps_around([edge], 1)))


_BAND = st.floats(1e-9, 1e-4, exclude_max=True) | st.floats(1e16, allow_infinity=False)


def _repr_bytes(values):
    return [float.__repr__(v).encode() for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_BAND, st.booleans()).map(lambda t: -t[0] if t[1] else t[0]), max_size=40))
def test_band_spellings_are_float_repr(values):
    """Any floats of either sign from both bands, so [1e-5, 1e-4), which
    orjson writes as 0.0000..., among them."""
    assert _band_spellings(values) == _repr_bytes(values)


_BAND_EDGES = [
    1e-9, 1e-5, math.nextafter(1e-5, 0), math.nextafter(1e-4, 0),
    1e16, math.nextafter(1e16, math.inf), 1.7976931348623157e308,
]


@pytest.mark.parametrize("values", [[v] for v in _BAND_EDGES] + [[-v] for v in _BAND_EDGES] + [[]], ids=repr)
def test_band_spellings_at_the_band_edges(values):
    assert _band_spellings(values) == _repr_bytes(values)


# Text of every ASCII character (DEL among them), the BMP with lone
# surrogates, and the astral planes.
_TEXT = st.text(
    st.characters(max_codepoint=127)
    | st.characters(min_codepoint=128, max_codepoint=0xFFFF, blacklist_categories=())
    | st.characters(min_codepoint=0x10000),
    max_size=6,
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**63, -(2**63), 2**63 - 1, -(2**63) - 1, 2**64, 2**64 - 1, -(2**64), 10**400])
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf")])  # json.dumps's NaN, orjson's null
    | st.floats(1e-9, 1e-4).flatmap(lambda v: st.sampled_from([v, -v]))
    | st.floats(1e16, 1e300).flatmap(lambda v: st.sampled_from([v, -v]))
    | st.sampled_from([-0.0, 5e-324, 1e15, 1e-4, 1e-9, 1e16, 1e-05, 3.2e-07])
    | _TEXT
)
_JSON_VALUE = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(_TEXT, kids, max_size=4)
    | st.dictionaries(st.integers(-3, 3), kids, max_size=3),  # keys json.dumps turns into strings
    max_leaves=20,
)


def _deep(n: int):
    value = 0
    for _ in range(n):
        value = [value]
    return value


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUE)
@example("\x7f")
@example({"a": "\x00rows", "b": [[], {}, ""]})
@example([9e-05, 1e15, 5e-324, -0.0])  # orjson's 0.00009
@example({"a": [-3.2e-07]})  # orjson's -3.2e-7
@example([1, -1e16])  # orjson's -1e16
@example({"\u03a3": ["\u2212", "\U0001d400"]})
@example("\ud800")  # a lone surrogate, which orjson refuses
@example(_deep(255))
@example(_deep(256))  # past orjson's nesting limit
@example(float("nan"))
@example({"a": [None, float("inf")]})
def test_dump_json_is_json_dumps_for_any_json_value(value):
    assert dump_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_dump_json_refuses_what_json_dumps_refuses():
    # a dataclass, which orjson would write as an object
    for value in ({"w": Witness((1,), 0)}, [Fraction(1, 2)], {"a": {1: 0, "b": 0}}):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            dump_json(value)


def test_payload_with_matrices_at_two_depths_matches_stdlib_bytes(monkeypatch):
    m = SymmetricMatrix(_symmetric([0.5, 0.25, -1.5, 1e-5, 2.0, 1e17]))
    payload = {
        "matrix": dump_matrix(m),
        "diagonal_exact": ["1/2", "-3/2", "2"],
        "report": {"eigenvalues": [-0.25, 1.0, 2.75], "multiplicities": [1, 2], "within_tolerance": True},
        "runs": [{"matrix": dump_matrix(SymmetricMatrix([[2.0]]))}, 10**18],
    }
    expected = _stdlib_text(payload)

    # the same payload where orjson's text would differ: json.dumps writes it
    for key, value in (("note", "\u03a3 d_i"), ("distance", 3.2e-07), ("distance", float("nan"))):
        odd = {**payload, key: value}
        assert dump_json(odd) == _stdlib_text(odd)

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called for a payload orjson writes alike")

    monkeypatch.setattr(json, "dumps", refuse)
    assert dump_json(payload) == expected


# The matrix render writes NumPy arrays; these pin that the rest of a payload
# is written as before, and that each marked entry lands in its own place.


@pytest.mark.parametrize("value", [np.zeros(2), {"a": np.zeros((1, 1))}, [np.float32(0.5)], {"a": np.int64(3)}])
def test_numpy_values_outside_a_matrix_raise_as_in_json_dumps(value):
    with pytest.raises(TypeError) as stdlib:
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as ours:
        dump_json(value)
    assert str(ours.value) == str(stdlib.value)


def test_numpy_float64_outside_a_matrix_is_written_as_json_dumps_writes_it():
    # np.float64 is a float to json.dumps and not to orjson, which refuses it
    for payload in ({"a": np.float64(0.5)}, {"a": np.float64(1e-5), "m": dump_matrix(SymmetricMatrix([[1e-5]]))}):
        assert dump_json(payload) == _stdlib_text(payload)


def test_marker_like_strings_next_to_a_matrix_with_respelled_entries(monkeypatch):
    m = SymmetricMatrix([[1e-5, 2.5e17], [2.5e17, -3.2e-7]])
    for payload in ({"note": "null", "matrix": dump_matrix(m)}, {"a": ["null", "xnullx"], "b": m, "c": None}):
        assert dump_json(payload) == _stdlib_text(payload)
    # text that looks like a marker or a format spec is the payload's own
    payload = {"note": "100% of %r, %s, {} and %%", "%": dump_matrix(m), "m": [m, "nul", "%(x)s"]}
    expected = _stdlib_text(payload)
    monkeypatch.setattr(json, "dumps", None)
    assert dump_json(payload) == expected


def test_matrix_with_every_entry_respelled():
    a = _symmetric([1e-9, -9.99e-5, 1e16, -1.7976931348623157e308, 3.2e-7, 5e-6, -2e20, 1e-5, 7.5e-8, 1e300])
    a[a == 0] = 1e-6  # no entry outside the band
    payload = {"z": [dump_matrix(SymmetricMatrix(a)), {"rows": SymmetricMatrix([[1e17]])}]}
    assert dump_json(payload) == _stdlib_text(payload)


@pytest.mark.parametrize(
    "view",
    [lambda a: a[::-1, ::-1], lambda a: a[::2, ::2], lambda a: np.asfortranarray(a)[::-1, ::-1], lambda a: a.T],
    ids=["reversed", "strided", "fortran reversed", "transposed"],
)
def test_matrix_entries_held_as_a_non_contiguous_view(view):
    big = _symmetric(_ulps_around([1e-9, 1e-4, 1e16, 0.1, 3.0], 2))
    m = SymmetricMatrix(big)
    m._entries = view(m._entries)
    assert not m._entries.flags.c_contiguous
    payload = {"matrix": dump_matrix(m), "twice": m}
    assert dump_json(payload) == _stdlib_text(payload)


def test_matrix_parse_rejects_bad_shape():
    with pytest.raises(SchemaError):
        parse_matrix({"dim": 3, "rows": [[0.0]]})
    with pytest.raises(SchemaError):
        parse_matrix({"dim": 2, "rows": [[0.0, "x"], ["x", 0.0]]})


def test_dump_decision_shape(dyadic):
    out = decide(dyadic, SpectrumSpec((F(0), F(1, 2), F(1))))
    payload = dump_decision(out)
    assert payload["verdict"] == "FeasibleCaseII"
    assert payload["witnesses"] == [{"N": [1], "k": -1}, {"N": [3], "k": -2}]
    assert payload["bounds"] == [3]
    assert "note" not in payload  # empty notes are omitted
    text = dump_json(payload)
    assert text == dump_json(json.loads(text))  # stable under re-serialization


def test_load_json_reports_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(SchemaError):
        load_json(p.read_text())


@given(st.fractions())
def test_rational_text_round_trip(x):
    assert parse_rational(format_rational(x)) == x


# ASCII, Arabic-Indic, Bengali and fullwidth digits; plain and Unicode spaces
_DIGITS = st.text(alphabet="0123456789\u0663\u0664\u09e6\u09ed\uff10\uff19", min_size=1, max_size=12)
_SPACE = st.text(alphabet=" \t\n\u00a0\u2003", max_size=3)


@given(_SPACE, st.sampled_from(("", "+", "-")), _DIGITS, st.none() | _DIGITS, _SPACE)
@example("", "", "\u0663", "\u0664", "")  # ٣/٤
@example(" ", "-", "007", "0014", " ")
@example("\t", "+", "\uff10", None, "\n")
def test_parse_rational_reads_what_fraction_reads(before, sign, p, q, after):
    """Every text the pattern admits (signs, surrounding whitespace, leading
    zeros, Unicode digits) parses to what Fraction's own parser gives."""
    text = before + sign + p + ("" if q is None else "/" + q) + after
    try:
        expected = Fraction(text.strip())
    except ZeroDivisionError:
        with pytest.raises(SchemaError, match="zero denominator"):
            parse_rational(text)
    else:
        assert parse_rational(text) == expected


# --------------------------------------------------------------------------
# parse_matrix_document: orjson first, json.loads on any rejection
# --------------------------------------------------------------------------

_REAL_DOC = json.loads((Path(__file__).parent / "data" / "golden" / "realize_t8.json").read_text())


def _float_or_fraction(x: Fraction):
    try:
        return float(x)
    except OverflowError:
        return x


def _json_reading(text, path="--matrix"):
    """The document read by json.loads alone, with the exact diagonal read as
    Fractions and then as their floats where they have one: verify's reading
    before orjson."""
    raw = load_json(text, path)
    exact = None
    if isinstance(raw, dict) and "matrix" in raw:
        if "diagonal_exact" in raw:
            exact = [_float_or_fraction(v) for v in _rational_array(raw["diagonal_exact"], f"{path}.diagonal_exact")]
        raw = raw["matrix"]
    return parse_matrix(raw, path), exact


def _reading(read, text):
    """What read gives for text, comparable across readers: the matrix bits
    and the exact diagonal with its types, or the schema error and path."""
    try:
        matrix, exact = read(text, "--matrix")
    except SchemaError as exc:
        return "error", str(exc), exc.path
    arr = matrix.as_array()
    exact = None if exact is None else [(type(v), v) for v in exact]
    return "read", arr.dtype.str, arr.shape, arr.tobytes(), exact


def _assert_reads_as_json_loads(text):
    assert _reading(parse_matrix_document, text) == _reading(_json_reading, text)


# Number and string literals where orjson and json.loads part ways: refusals
# (non-finite, past the float range, lone surrogates), integers outside
# [−2⁶³, 2⁶⁴) that orjson reads as floats, and floats in the two bands where
# the writers spell digits differently.
_ODD_LITERALS = [
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400, "-1" + "0" * 30,
    str(2**64), str(2**64 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1), "1" + "0" * 5000,
    "1e-05", "0.00001", "1e16", "1e+16", "-0", "-0.0", "4.9e-324", "1E2", "0.5",
    '"\\ud800"', '"\\udc00x"', '"\ud800"', '"−Σ"', '"1/2"', '"1/0"', "true", "null", "[]", "{}",
]
_LITERALS = (
    st.sampled_from(_ODD_LITERALS)
    | st.integers(-(2**70), 2**70).map(str)
    | st.integers(2**64, 10**300).map(str)
    | st.floats(allow_nan=False, allow_infinity=False).map(repr)
    | st.floats(1e-9, 1e-4).map(repr)
    | st.floats(1e16, 1e300).map(repr)
    | st.tuples(st.text(st.characters(blacklist_categories=()), max_size=4), st.booleans()).map(
        lambda t: json.dumps(t[0], ensure_ascii=t[1])
    )
)
_DEEP = st.sampled_from([1, 31, 32, 33, 990, 1100, 20_000]).map(lambda n: "[" * n + "0" + "]" * n)
_JSON_TEXT = st.recursive(
    _LITERALS | _DEEP,
    lambda kids: st.lists(kids, max_size=4).map(lambda xs: "[" + ",".join(xs) + "]")
    | st.lists(st.tuples(st.sampled_from(['"dim"', '"rows"', '"matrix"', '"diagonal_exact"', '"x"']), kids), max_size=4).map(
        lambda kv: "{" + ",".join(f"{k}:{v}" for k, v in kv) + "}"
    ),
    max_leaves=12,
)


@st.composite
def _mutated_realize_text(draw):
    """The text of the golden realize payload with up to three nodes replaced
    by literal texts; a matrix entry changes with its mirror entry."""
    doc = json.loads(json.dumps(_REAL_DOC))
    dim = doc["matrix"]["dim"]
    wheres = st.sampled_from(["dim", "entry", "diagonal_exact", "report", "new key", "matrix"])
    slots = {}
    # whole values are replaced last, after the mutations inside them
    for k, where in enumerate(sorted(draw(st.lists(wheres, max_size=3)), key=lambda w: w in ("new key", "matrix"))):
        slot = f"\x00{k}\x00"
        slots[json.dumps(slot)] = draw(_LITERALS | _DEEP | _JSON_TEXT)
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        if where == "dim":
            doc["matrix"]["dim"] = slot
        elif where == "entry":
            doc["matrix"]["rows"][i][j] = doc["matrix"]["rows"][j][i] = slot
        elif where == "diagonal_exact":
            doc["diagonal_exact"][i] = slot
        elif where == "report":
            doc["report"]["eigenvalues"][i] = slot
        elif where == "new key":
            doc[draw(st.sampled_from(["translation", "x", "diagonal_exact"]))] = slot
        else:
            doc["matrix"] = slot
    text = json.dumps(doc, indent=draw(st.sampled_from([None, 2])), ensure_ascii=draw(st.booleans()))
    for quoted, literal in slots.items():
        text = text.replace(quoted, literal)
    return text


@settings(max_examples=300, deadline=None)
@given(_mutated_realize_text())
def test_matrix_document_reads_as_json_loads_on_mutated_realize_payloads(text):
    """Matrix bits and exact diagonal, or the schema error and its path, are
    those of json.loads for realize payloads carrying big integers, floats in
    both respelled bands, non-ASCII text, NaN, Infinity, 1e400, lone
    surrogates and deep nesting."""
    _assert_reads_as_json_loads(text)


@settings(max_examples=300, deadline=None)
@given(_JSON_TEXT)
def test_matrix_document_reads_as_json_loads_on_any_json_text(text):
    _assert_reads_as_json_loads(text)


@pytest.mark.parametrize(
    "text",
    [
        "[" * 200_000 + "]" * 200_000,  # past orjson's C stack
        '{"a":' * 60_000 + "0" + "}" * 60_000,
        # an unread value nested past json.loads's recursion limit
        json.dumps({**_REAL_DOC, "report": "<deep>"}).replace('"<deep>"', "[" * 2000 + "]" * 2000),
        json.dumps({**_REAL_DOC, "report": "<deep>"}).replace('"<deep>"', "[" * 33 + "]" * 33),
    ],
    ids=["arrays", "objects", "unread past the limit", "unread just past the orjson depth"],
)
def test_matrix_document_deep_nesting_reads_as_json_loads(text):
    _assert_reads_as_json_loads(text)


def test_matrix_document_pinned_disagreements():
    # 2⁶⁴ is a float to orjson, which the diagonal refuses: json.loads's integer is read
    doc = copy.deepcopy(_REAL_DOC)
    doc["diagonal_exact"][0] = 2**64
    _, exact = parse_matrix_document(json.dumps(doc), "--matrix")
    assert exact[0] == 2**64 and type(exact[0]) is float
    doc["diagonal_exact"][0] = 0.5
    with pytest.raises(SchemaError, match="got float") as exc:
        parse_matrix_document(json.dumps(doc), "--matrix")
    assert exc.value.path == "--matrix.diagonal_exact[0]"
    # 10⁴⁰⁰ is refused by orjson, and json.loads's integer cannot be a float
    text = '{"dim": 2, "rows": [[0.5, 0.0], [0.0, 1%s]]}' % ("0" * 400)
    with pytest.raises(SchemaError, match="integer too large for a float") as exc:
        parse_matrix_document(text, "--matrix")
    assert exc.value.path == "--matrix.rows[1][1]"
