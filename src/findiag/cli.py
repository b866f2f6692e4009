"""Command-line interface.

Exit codes by cause, read from the verdict (_verdict_exit) or the exception
(main) only: 0 feasible / success, 1 infeasible / failed verification, 2 a
question outside the theorem's scope, 64 malformed input (a broken
precondition), 65 a witness that no truncation level realizes, 70 a level
below the smallest sufficient one, a construction defect or any other error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from dataclasses import replace
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from . import __version__
from .construct import (
    SymmetricMatrix,
    _diagonal_matches,
    _spectrum_report,
    realize_truncated,
    verify_realization,
)
from .decide import Verdict, _subset_decisions, decide, decide_projection
from .errors import ConstructionError, DomainError, OutOfScopeError, SchemaError, TruncationTooSmallError
from .explore import emit_region, four_point_region, three_point_spectra, AllOfInterval, RegionSample
from .majorize import Witness, canonical_shift, riemann_check
from .scalars import _RATIONAL_RE, format_rational, parse_rational
from .sequences import DiagonalSequence, SpectrumSpec
from .serialize import (
    dump_decision,
    dump_json,
    dump_matrix,
    dump_profile,
    dump_report,
    dump_witness,
    load_json,
    parse_matrix_document,
    parse_sequence,
    parse_witness,
    _rational_array,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are malformed input
        self.exit(64, f"{self.prog}: error: {message}\n")


def _number(convert, low):
    """An argparse type: convert(text) (int or float), refused unless finite
    and ≥ low, so an out-of-range argument is a usage error (exit 64)."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not low <= value < math.inf:
            what = "an integer" if convert is int else "a finite number"
            raise argparse.ArgumentTypeError(f"expected {what} ≥ {low}, got {text!r}")
        return value

    return parse


def _read_text(path: str, label: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # a missing file, or one that is not UTF-8 text
        raise SchemaError(f"cannot read {path}: {exc}", label) from exc


@contextlib.contextmanager
def _in_float_range(label: str, what: str = "a rational"):
    """Turn the OverflowError of float() on a rational past the float range
    into a SchemaError at label (exit 64), where the float is taken."""
    try:
        yield
    except OverflowError:
        raise SchemaError(f"{what} is too large for a float", label) from None


def _load_sequence(path: str) -> DiagonalSequence:
    return parse_sequence(load_json(_read_text(path, "--seq"), "--seq"), "--seq")


def _rational_list(value: str, label: str) -> List[Fraction]:
    tokens = [t.strip() for t in value.split(",")]
    if tokens and all(_RATIONAL_RE.match(t) for t in tokens):
        return [parse_rational(t, label) for t in tokens]
    return _rational_array(load_json(_read_text(value, label), label), label)


def _load_spectrum(args) -> Tuple[SpectrumSpec, Fraction]:
    """Parse --spectrum; with --translate, shift so the least point is 0.
    Returns (spectrum, shift) with shift the amount subtracted."""
    raw = _rational_list(args.spectrum, "--spectrum")
    if not raw:
        raise SchemaError("spectrum cannot be empty", "--spectrum")
    shift = Fraction(0)
    if raw[0] != 0:
        if not getattr(args, "translate", False):
            raise SchemaError(
                f"spectrum must start at 0 (got {format_rational(raw[0])}); "
                "pass --translate to shift it",
                "--spectrum",
            )
        shift = raw[0]
        raw = [p - shift for p in raw]
    try:
        return SpectrumSpec(tuple(raw)), shift
    except DomainError as exc:
        raise SchemaError(str(exc), "--spectrum") from exc


def _shift_sequence(seq: DiagonalSequence, shift: Fraction) -> DiagonalSequence:
    """Translate entries and B by −shift; counts and tails are endpoint-relative
    and carry over unchanged."""
    if shift == 0:
        return seq
    try:
        return replace(seq, B=seq.B - shift, explicit=tuple(v - shift for v in seq.explicit))
    except DomainError as exc:
        raise SchemaError(f"sequence does not fit the translated interval: {exc}", "--seq") from exc


def _load_problem(args) -> Tuple[DiagonalSequence, SpectrumSpec, Fraction]:
    """(sequence, spectrum, shift) from --seq and --spectrum, both translated
    by the shift of _load_spectrum; the sequence's B must be the spectrum's."""
    spectrum, shift = _load_spectrum(args)
    seq = _load_sequence(args.seq)
    if seq.B != spectrum.B + shift:
        raise SchemaError(
            f"the sequence's B={format_rational(seq.B)} differs from the spectrum's "
            f"last point {format_rational(spectrum.B + shift)}",
            "--spectrum",
        )
    return _shift_sequence(seq, shift), spectrum, shift


def _load_witness(text: str, spectrum: SpectrumSpec) -> Witness:
    """--witness, with one multiplicity per interior point of the spectrum."""
    witness = parse_witness(load_json(text, "--witness"), "--witness")
    if len(witness.N) != spectrum.n:
        message = f"expected one multiplicity per interior point ({spectrum.n}), got {len(witness.N)}"
        raise SchemaError(message, "--witness.N")
    return witness


def _print(payload) -> None:
    sys.stdout.write(dump_json(payload))


def _verdict_exit(verdict: Verdict) -> int:
    return {Verdict.INFEASIBLE: 1, Verdict.OUT_OF_SCOPE: 2}.get(verdict, 0)


def _explain_payload(seq: DiagonalSequence, spectrum: SpectrumSpec, witnesses):
    """Per-witness canonical shifts and partial-sum profiles, when the sequence
    admits a ℤ-indexed arrangement.  The witnesses of decide balance the
    trace modulo B at B/2, and C(α) − D(α) mod B does not depend on α, so
    canonical_shift finds an integer shift for each of them."""
    try:
        profiles = []
        for w in witnesses:
            shift = canonical_shift(seq, spectrum, w.N)
            ok, profile = riemann_check(seq, spectrum, Witness(w.N, shift))
            profiles.append(
                {
                    "witness": dump_witness(w),
                    "shift": shift,
                    "holds": ok,
                    "profile": dump_profile(profile),
                }
            )
        return {"profiles": profiles}
    except DomainError as exc:
        return {"profiles": None, "note": str(exc)}


def _cmd_decide(args) -> int:
    seq, spectrum, shift = _load_problem(args)
    decision = decide(seq, spectrum)
    payload = dump_decision(decision)
    if shift:
        payload["translation"] = format_rational(shift)
    if args.explain:
        payload["explain"] = _explain_payload(seq, spectrum, decision.witnesses)
    if args.subset_spectra:
        payload["subset_results"] = [
            {
                "interior": [format_rational(p) for p in subset],
                "verdict": d.verdict.value,
                "witnesses": [dump_witness(w) for w in d.witnesses],
            }
            for subset, d in _subset_decisions(seq, spectrum)
        ]
    _print(payload)
    return _verdict_exit(decision.verdict)


def _cmd_witnesses(args) -> int:
    seq, spectrum, _ = _load_problem(args)
    decision = decide(seq, spectrum)
    if decision.verdict is Verdict.OUT_OF_SCOPE:
        payload = dump_decision(decision)
    else:
        payload = {
            "witnesses": [dump_witness(w) for w in decision.witnesses],
            "bounds": list(decision.bounds),
            "verdict": decision.verdict.value,
        }
        if args.explain:
            payload["explain"] = _explain_payload(seq, spectrum, decision.witnesses)
    _print(payload)
    return _verdict_exit(decision.verdict)


def _cmd_project(args) -> int:
    seq = _load_sequence(args.seq)
    decision = decide_projection(seq)
    _print(dump_decision(decision))
    return _verdict_exit(decision.verdict)


def _cmd_realize(args) -> int:
    seq, spectrum, shift = _load_problem(args)
    witness = _load_witness(args.witness, spectrum)
    with _in_float_range("--seq", "the sequence's B"):  # the entries are floats up to B
        matrix = realize_truncated(seq, spectrum, witness, args.trunc)
        report = verify_realization(matrix, spectrum, matrix.exact_diagonal, witness=witness)

    out_matrix = matrix
    exact = list(matrix.exact_diagonal)
    if shift:
        exact = [v + shift for v in exact]
        with _in_float_range("--translate"):
            arr = matrix.as_array() + float(shift) * np.eye(matrix.dimension)
            for i, v in enumerate(exact):
                arr[i, i] = float(v)
        out_matrix = SymmetricMatrix(arr, matrix.provenance, tuple(exact))

    if args.pretty:
        sys.stdout.write(out_matrix.text_grid() + "\n")
        return 0
    payload = {
        "matrix": dump_matrix(out_matrix),
        "diagonal_exact": [format_rational(v) for v in exact],
        "report": dump_report(report),
    }
    if shift:
        payload["translation"] = format_rational(shift)
        payload["report"]["eigenvalues"] = [
            e + float(shift) for e in payload["report"]["eigenvalues"]
        ]
    text = dump_json(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    spectrum, shift = _load_spectrum(args)
    matrix, exact_from_file = parse_matrix_document(_read_text(args.matrix, "--matrix"), "--matrix")

    if args.diag is not None:
        expected, label = _rational_list(args.diag, "--diag"), "--diag"
    elif exact_from_file is not None:
        expected, label = exact_from_file, "--matrix.diagonal_exact"
    else:
        expected, label = [matrix.entry(i, i) for i in range(matrix.dimension)], "--matrix"
    if len(expected) != matrix.dimension:
        raise SchemaError(f"expected one entry per row ({matrix.dimension}), got {len(expected)}", label)

    witness = None if args.witness is None else _load_witness(args.witness, spectrum)

    # the diagonal is checked on the matrix as given; only the eigenvalues
    # are read in the frame of the (possibly translated) spectrum
    arr = matrix.as_array()
    with _in_float_range("--translate"):
        arr[np.diag_indices_from(arr)] -= float(shift)
    with _in_float_range(label):
        diag_ok = _diagonal_matches(matrix, expected)
    with _in_float_range("--spectrum"):
        report = _spectrum_report(arr, spectrum, diag_ok, witness, args.tol)
    if args.pretty:
        sys.stdout.write(matrix.text_grid() + "\n")
    else:
        payload = dump_report(report)
        if shift:
            payload["translation"] = format_rational(shift)
            payload["eigenvalues"] = [e + float(shift) for e in payload["eigenvalues"]]
        _print(payload)
    ok = (
        report.diagonal_exact_match
        and report.within_tolerance
        and report.witness_multiplicities_ok in (None, True)
    )
    return 0 if ok else 1


def _write_svg(path: Optional[str], rows, B: Fraction) -> None:
    """Write the --svg scatter of rows when a path is given; the commands
    call this before any other output."""
    if path:
        with _in_float_range("--svg", "the sequence's B"):  # the coordinates are floats over B
            svg = emit_region(rows, "svg", B=B)
        with open(path, "wb") as fh:
            fh.write(svg)


def _cmd_explore3(args) -> int:
    seq = _load_sequence(args.seq)
    result = three_point_spectra(seq, n_max=args.n_max)
    if isinstance(result, AllOfInterval):
        _print({"all_of_interval": {"B": format_rational(result.B)}})
        return 0
    points = sorted(result)
    _write_svg(args.svg, [RegionSample(p, None, True, 0) for p in points], seq.B)
    _print({"points": [format_rational(p) for p in points], "count": len(points)})
    return 0


def _cmd_explore4(args) -> int:
    seq = _load_sequence(args.seq)
    rows = four_point_region(seq, args.grid)
    _write_svg(args.svg, rows, seq.B)
    csv = emit_region(rows, "csv")
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(csv)
    else:
        sys.stdout.buffer.write(csv)
        sys.stdout.flush()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="findiag", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spectrum=True):
        p.add_argument("--seq", required=True, help="path to a sequence JSON file")
        if spectrum:
            p.add_argument(
                "--spectrum",
                required=True,
                help="comma-separated rationals or a path to a JSON array",
            )
            p.add_argument(
                "--translate",
                action="store_true",
                help="shift a spectrum not starting at 0 (and the sequence) to [0, B]",
            )

    p = sub.add_parser("decide", help="full feasibility decision")
    common(p)
    p.add_argument("--explain", action="store_true", help="attach per-witness partial-sum profiles")
    p.add_argument(
        "--subset-spectra",
        action="store_true",
        help="also report verdicts for every proper interior subset",
    )
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("witnesses", help="enumerate all witnesses")
    common(p)
    p.add_argument("--explain", action="store_true", help="attach per-witness partial-sum profiles")
    p.set_defaults(func=_cmd_witnesses)

    p = sub.add_parser("project", help="two-point spectrum {0, B} feasibility")
    common(p, spectrum=False)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("realize", help="build a truncated realization matrix")
    common(p)
    p.add_argument("--witness", required=True, help='witness JSON, e.g. {"N": [1], "k": -1}')
    p.add_argument("--trunc", type=_number(int, 0), required=True, help="tail truncation level T ≥ 0")
    p.add_argument("--out", help="write the JSON payload to a file instead of stdout")
    p.add_argument("--pretty", action="store_true", help="print an aligned text grid instead of JSON")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("verify", help="verify a realization matrix")
    p.add_argument("--matrix", required=True, help="path to a matrix JSON file (bare or realize output)")
    p.add_argument(
        "--spectrum",
        required=True,
        help="comma-separated rationals or a path to a JSON array",
    )
    p.add_argument("--translate", action="store_true", help="shift a spectrum not starting at 0")
    p.add_argument("--diag", help="expected diagonal: comma-separated rationals or JSON array path")
    p.add_argument("--witness", help="witness JSON to check interior multiplicities against")
    p.add_argument("--tol", type=_number(float, 0), default=1e-8, help="eigenvalue distance tolerance")
    p.add_argument("--pretty", action="store_true", help="print an aligned text grid instead of JSON")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("explore3", help="exact feasible set of single interior points")
    common(p, spectrum=False)
    p.add_argument("--n-max", type=_number(int, 1), help="override the scanned multiplicity cap")
    p.add_argument("--svg", help="also write an SVG scatter to this path")
    p.set_defaults(func=_cmd_explore3)

    p = sub.add_parser("explore4", help="feasible region over interior point pairs")
    common(p, spectrum=False)
    p.add_argument("--grid", type=_number(int, 3), required=True, help="grid divisions q ≥ 3")
    p.add_argument("--svg", help="also write an SVG scatter to this path")
    p.add_argument("--out", help="write the CSV to a file instead of stdout")
    p.set_defaults(func=_cmd_explore4)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process; parsing leaves a parser unchanged."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except OutOfScopeError as exc:  # a question outside the theorem's scope
        error, code = exc, 2
    except (SchemaError, DomainError) as exc:  # a broken precondition: malformed input
        error, code = exc, 64
    except TruncationTooSmallError as exc:  # no level realizes the witness, or T is too small
        error, code = exc, 65 if exc.minimal is None else 70
    except ConstructionError as exc:  # a failed invariant of the construction: a defect
        error, code = exc, 70
    except Exception as exc:  # keep exit codes meaningful even on surprises
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 70
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
