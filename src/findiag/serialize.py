"""JSON (de)serialization of sequences, witnesses, matrices and the CLI's
reports, with path-anchored schema errors.  Rationals travel as exact "p/q"
strings, infinite counts as "inf", and dumps are key-sorted upstream so
reruns are byte-identical."""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import numpy as np

from .construct import RealizationReport, SymmetricMatrix
from .decide import Decision
from .errors import DomainError, SchemaError
from .majorize import DeltaProfile, Witness
from .scalars import INF, format_rational, parse_rational
from .sequences import (
    DiagonalSequence,
    DivergentTail,
    GeometricTail,
    ThresholdStats,
)


def load_json(text: str, path: str = "$"):
    try:
        return json.loads(text)
    # a JSONDecodeError, an int past the digit limit, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON: {exc}", path) from exc


# orjson spells a float in [1e-9, 1e-4) or from 1e16 on unlike float.__repr__:
# 0.00001, 3.2e-7 and 1e16 for 1e-05, 3.2e-07 and 1e+16.  Each such text holds
# "0.0000" or a match of this pattern, which begins with a literal "e" that
# the regex engine finds fast; the digit strings of rationals hold none.
_ORJSON_EXPONENT = re.compile(rb"e(?:\d|-\d(?!\d))")


def dump_json(obj) -> str:
    """Canonical rendering: sorted keys, two-space indent, trailing newline,
    in exactly the bytes of json.dumps(obj, indent=2, sort_keys=True).

    orjson renders the payload.  json.dumps renders it instead when orjson
    refuses it (an integer outside 64 bits, a key that is not a string, a
    lone surrogate, nesting past 255 levels) or when orjson's text may
    differ from json.dumps's: text that is not ASCII, holds DEL or a null
    (orjson's NaN and ±Infinity), or spells a float in [1e-9, 1e-4) or from
    1e16 on.  A value that is not JSON raises TypeError, as in json.dumps,
    except an Enum or a UUID, which orjson writes by its value.

    A SymmetricMatrix value (the "rows" of dump_matrix) is written as the
    float lists of its entries.  The checks run on a first render that writes
    each matrix as 0.  If it passes and held a matrix, orjson renders the
    payload again with each matrix as a NumPy array in which NaN, written as
    null, marks the entries it spells unlike float.__repr__.  The first
    render showed the payload has no null of its own, so one split at the
    nulls and one join with the marked entries, spelled by _band_spellings
    from orjson's digits as float.__repr__ spells them, give the text.
    """
    import orjson  # here, so that importing the package never loads it

    matrices = []

    def defer(o):
        if not isinstance(o, SymmetricMatrix):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        matrices.append(o)
        return 0

    options = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_PASSTHROUGH_DATACLASS
    options |= orjson.OPT_APPEND_NEWLINE
    try:
        text = orjson.dumps(obj, default=defer, option=options)
    except TypeError:  # orjson.JSONEncodeError: a value orjson refuses
        text = None
    if (
        text is None
        or not text.isascii()  # json.dumps escapes non-ASCII characters
        or b"\x7f" in text  # and DEL, which orjson writes raw
        or b"null" in text  # orjson writes NaN and ±Infinity as null
        or b"0.0000" in text
        or _ORJSON_EXPONENT.search(text)
    ):
        # defer refuses what is not a matrix, and its 0 is falsy: a matrix is written as its float lists
        return json.dumps(obj, indent=2, sort_keys=True, default=lambda o: defer(o) or o._entries.tolist()) + "\n"
    if not matrices:
        return text.decode()
    respelled = []
    options |= orjson.OPT_SERIALIZE_NUMPY
    parts = orjson.dumps(obj, default=lambda o: _marked(o._entries, respelled), option=options).split(b"null")
    pieces = [b""] * (2 * len(parts) - 1)
    pieces[::2] = parts
    pieces[1::2] = _band_spellings(respelled)
    text = b"".join(pieces)
    del parts, pieces  # so that two texts at most are alive at once
    return text.decode()


def _marked(entries: np.ndarray, respelled: List[float]) -> np.ndarray:
    """entries as a C-ordered array with NaN for each entry orjson spells
    unlike float.__repr__ (1e-9 <= |v| < 1e-4 or |v| >= 1e16), which is
    appended to respelled for _band_spellings to spell; one float buffer
    holds |v|, then the result."""
    marked = np.abs(entries, order="C")
    band = (marked >= 1e16) | ((marked >= 1e-9) & (marked < 1e-4))
    respelled += entries[band].tolist()
    np.copyto(marked, entries)
    marked[band] = np.nan
    return marked


def _band_spellings(values: List[float]) -> List[bytes]:
    """float.__repr__ of each value in the band of _marked, as bytes, from one
    orjson render of them all: below 1e-5 and from 1e16 on it differs only in
    the exponent, which three replacements respell (3.2e-7 and 1e16 become
    3.2e-07 and 1e+16; each band exponent below 1e-5 has one digit).  Values
    in [1e-5, 1e-4), which orjson writes as 0.0000..., take float.__repr__."""
    import orjson

    text = orjson.dumps(values)[1:-1].replace(b"e-", b"e-0").replace(b"e", b"e+").replace(b"e+-", b"e-")
    spelled = text.split(b",") if values else []
    for i, v in enumerate(values):
        if 1e-5 <= abs(v) < 1e-4:
            spelled[i] = float.__repr__(v).encode()
    return spelled


def _parse_scalar(value, path: str, ratio=Fraction):
    if isinstance(value, bool):
        raise SchemaError(f"expected a rational, got {value!r}", path)
    if isinstance(value, int):
        return ratio(value, 1)
    if isinstance(value, str):
        return parse_rational(value, path, ratio)
    raise SchemaError(
        f"expected a rational as an integer or 'p/q' string, got {type(value).__name__}",
        path,
    )


def _rational_array(data, path: str, ratio=Fraction) -> list:
    """A parsed JSON array of rationals, each parsed at its own path."""
    if not isinstance(data, list):
        raise SchemaError("expected an array of rationals", path)
    return [_parse_scalar(v, f"{path}[{i}]", ratio) for i, v in enumerate(data)]


def _float_ratio(p: int, q: int):
    """p / q, correctly rounded as float(Fraction(p, q)) is; past the float
    range, the Fraction itself, so that float() raises where verify takes it."""
    try:
        return p / q
    except OverflowError:
        return Fraction(p, q)


def _parse_count(value, path: str):
    if value == "inf":
        return INF
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"expected a count (integer ≥ 0 or \"inf\"), got {value!r}", path)
    if value < 0:
        raise SchemaError(f"count must be ≥ 0, got {value}", path)
    return value


def _check_keys(obj: Dict, allowed: Sequence[str], required: Sequence[str], path: str):
    if not isinstance(obj, dict):
        raise SchemaError(f"expected an object, got {type(obj).__name__}", path)
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"unknown key {key!r} (allowed: {', '.join(allowed)})", path)
    for key in required:
        if key not in obj:
            raise SchemaError(f"missing required key {key!r}", path)


def _parse_tail(value, path: str):
    if value is None:
        return None
    _check_keys(value, ("kind", "first", "ratio"), ("kind",), path)
    kind = value["kind"]
    if kind == "divergent":
        for key in ("first", "ratio"):
            if key in value:
                raise SchemaError(f"divergent tails carry no {key!r}", f"{path}.{key}")
        return DivergentTail()
    if kind == "geometric":
        for key in ("first", "ratio"):
            if key not in value:
                raise SchemaError(f"geometric tails need {key!r}", path)
        return GeometricTail(
            _parse_scalar(value["first"], f"{path}.first"),
            _parse_scalar(value["ratio"], f"{path}.ratio"),
        )
    raise SchemaError(f"unknown tail kind {kind!r} (geometric or divergent)", f"{path}.kind")


def _dump_tail(tail) -> Optional[Dict]:
    if tail is None:
        return None
    if isinstance(tail, DivergentTail):
        return {"kind": "divergent"}
    return {
        "kind": "geometric",
        "first": format_rational(tail.first),
        "ratio": format_rational(tail.ratio),
    }


def parse_sequence(obj, path: str = "$") -> DiagonalSequence:
    _check_keys(
        obj,
        ("B", "explicit", "zero_count", "b_count", "zero_tail", "b_tail"),
        ("B",),
        path,
    )
    explicit_raw = obj.get("explicit", [])
    if not isinstance(explicit_raw, list):
        raise SchemaError("explicit must be an array of rationals", f"{path}.explicit")
    try:
        return DiagonalSequence(
            B=_parse_scalar(obj["B"], f"{path}.B"),
            explicit=tuple(
                _parse_scalar(v, f"{path}.explicit[{i}]") for i, v in enumerate(explicit_raw)
            ),
            zero_count=_parse_count(obj.get("zero_count", 0), f"{path}.zero_count"),
            b_count=_parse_count(obj.get("b_count", 0), f"{path}.b_count"),
            zero_tail=_parse_tail(obj.get("zero_tail"), f"{path}.zero_tail"),
            b_tail=_parse_tail(obj.get("b_tail"), f"{path}.b_tail"),
        )
    except DomainError as exc:
        raise SchemaError(str(exc), path) from exc


def dump_sequence(seq: DiagonalSequence) -> Dict:
    return {
        "B": format_rational(seq.B),
        "explicit": [format_rational(v) for v in seq.explicit],
        "zero_count": "inf" if seq.zero_count is INF else seq.zero_count,
        "b_count": "inf" if seq.b_count is INF else seq.b_count,
        "zero_tail": _dump_tail(seq.zero_tail),
        "b_tail": _dump_tail(seq.b_tail),
    }


def parse_witness(obj, path: str = "$") -> Witness:
    _check_keys(obj, ("N", "k"), ("N", "k"), path)
    raw_n = obj["N"]
    if not isinstance(raw_n, list):
        raise SchemaError("N must be an array of integers ≥ 1", f"{path}.N")
    for i, v in enumerate(raw_n):
        if isinstance(v, bool) or not isinstance(v, int):
            raise SchemaError(f"multiplicity must be an integer, got {v!r}", f"{path}.N[{i}]")
    k = obj["k"]
    if isinstance(k, bool) or not isinstance(k, int):
        raise SchemaError(f"k must be an integer, got {k!r}", f"{path}.k")
    try:
        return Witness(tuple(raw_n), k)
    except DomainError as exc:
        raise SchemaError(str(exc), path) from exc


def dump_witness(witness: Witness) -> Dict:
    return {"N": list(witness.N), "k": witness.k}


def _dump_extended(value) -> str:
    return "inf" if value is INF else format_rational(value)


def dump_stats(stats: ThresholdStats) -> Dict:
    return {
        "alpha": format_rational(stats.alpha),
        "C": _dump_extended(stats.C),
        "D": _dump_extended(stats.D),
    }


def dump_decision(decision: Decision) -> Dict:
    out = {
        "verdict": decision.verdict.value,
        "witnesses": [dump_witness(w) for w in decision.witnesses],
        "stats": [dump_stats(st) for st in decision.stats],
        "bounds": list(decision.bounds),
    }
    if decision.note:
        out["note"] = decision.note
    return out


def dump_profile(profile: DeltaProfile) -> Dict:
    return {
        "trace_residual": format_rational(profile.trace_residual),
        "deltas": [
            {"m": m, "delta": format_rational(d)} for m, d in profile.checked_indices
        ],
    }


_NUMBER_TYPES = {float, int}


def parse_matrix(obj, path: str = "$") -> SymmetricMatrix:
    _check_keys(obj, ("dim", "rows"), ("dim", "rows"), path)
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
        raise SchemaError(f"dim must be an integer ≥ 0, got {dim!r}", f"{path}.dim")
    rows = obj["rows"]
    if not isinstance(rows, list) or len(rows) != dim:
        raise SchemaError(f"rows must be an array of {dim} arrays", f"{path}.rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise SchemaError(f"row must hold {dim} numbers", f"{path}.rows[{i}]")
        if set(map(type, row)) <= _NUMBER_TYPES:
            continue
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise SchemaError(f"expected a number, got {v!r}", f"{path}.rows[{i}][{j}]")
    try:
        arr = np.array(rows, dtype=float).reshape((dim, dim))
    except OverflowError:  # an int beyond the float range: find it to name its path
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                try:
                    float(v)
                except OverflowError:
                    raise SchemaError("integer too large for a float", f"{path}.rows[{i}][{j}]") from None
        raise
    if not np.isfinite(arr).all():
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise SchemaError(f"expected a finite number, got {rows[i][j]!r}", f"{path}.rows[{i}][{j}]")
    if not np.array_equal(arr, arr.T):
        raise SchemaError("matrix is not symmetric", f"{path}.rows")
    return SymmetricMatrix(arr)


# orjson 3.8 recurses on the C stack with no depth limit (200,000 nested
# arrays overflow an 8 MB stack), and nesting is at most the number of
# opening brackets: a text with more of them is read by json.loads alone.
_ORJSON_MAX_OPENERS = 10_000
# json.loads refuses nesting past the recursion limit, which orjson reads: a
# value the schema leaves unread is taken from orjson only this shallow.
_UNREAD_DEPTH = 32


def parse_matrix_document(text: str, path: str = "$"):
    """(matrix, exact diagonal or None) of a JSON text holding a bare matrix
    or a realize payload, whose "diagonal_exact" is read at path.diagonal_exact
    as the floats of its rationals (see _float_ratio).

    The text is read with orjson, several times faster than json.loads on a
    multi-megabyte matrix, and read again with load_json whenever orjson or
    the schema refuses the first reading, so that the result or the error is
    the one load_json gives.  Apart from deep nesting, which the two
    constants above send to load_json, the readings differ only where orjson
    refuses (NaN, Infinity, a number beyond the float range, a lone
    surrogate) or reads an integer outside [−2⁶³, 2⁶⁴) as a float.  The
    schema refuses such a float wherever it wants an integer or a rational,
    and a matrix entry becomes the same float either way.
    """
    import orjson  # here, so that callers that read no matrix never load it

    if text.count("[") + text.count("{") <= _ORJSON_MAX_OPENERS:
        try:
            matrix, exact, unread = _matrix_document(orjson.loads(text), path)
            if not _nests_deeper(unread, _UNREAD_DEPTH):
                return matrix, exact
        except (orjson.JSONDecodeError, SchemaError):
            pass
    matrix, exact, _ = _matrix_document(load_json(text, path), path)
    return matrix, exact


def _matrix_document(doc, path: str):
    """(matrix, float diagonal or None, values left unread) of a parsed
    matrix document: a realize payload's "matrix" is read, else the whole."""
    if not (isinstance(doc, dict) and "matrix" in doc):
        return parse_matrix(doc, path), None, []
    exact = None
    if "diagonal_exact" in doc:
        exact = _rational_array(doc["diagonal_exact"], f"{path}.diagonal_exact", _float_ratio)
    unread = [v for k, v in doc.items() if k not in ("matrix", "diagonal_exact")]
    return parse_matrix(doc["matrix"], path), exact, unread


def _nests_deeper(values: list, depth: int) -> bool:
    """Whether some value in values lies inside more than depth nested arrays
    and objects; one list comprehension per level."""
    for _ in range(depth + 1):
        values = [
            v for c in values if isinstance(c, (list, dict)) for v in (c.values() if isinstance(c, dict) else c)
        ]
        if not values:
            return False
    return True


def dump_matrix(matrix: SymmetricMatrix) -> Dict:
    """{"dim", "rows"} for dump_json, which writes the matrix as its rows."""
    return {"dim": matrix.dimension, "rows": matrix}


def dump_report(report: RealizationReport) -> Dict:
    return {
        "diagonal_exact_match": report.diagonal_exact_match,
        "eigenvalues": list(report.eigenvalues),
        "spectrum_distance": report.spectrum_distance,
        "multiplicities": list(report.multiplicities),
        "within_tolerance": report.within_tolerance,
        "witness_multiplicities_ok": report.witness_multiplicities_ok,
    }
