"""Command-line interface: exit codes, payload shapes, file round-trips."""

import copy
import functools
import importlib
import json
import operator
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from findiag import ConstructionError, cli
from findiag.cli import main

F = Fraction

DATA = Path(__file__).parent / "data"
DYADIC = str(DATA / "dyadic.json")
DYADIC_DOC = json.loads(Path(DYADIC).read_text())
_REAL_DOC = json.loads((DATA / "golden" / "realize_t8.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_seq(tmp_path, payload, name="seq.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_decide_feasible(capsys):
    code, out, _ = run(capsys, "decide", "--seq", DYADIC, "--spectrum", "0,1/2,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "FeasibleCaseII"
    assert payload["witnesses"] == [{"N": [1], "k": -1}, {"N": [3], "k": -2}]
    assert payload["bounds"] == [3]


def test_decide_rerun_is_byte_identical(capsys):
    _, first, _ = run(capsys, "decide", "--seq", DYADIC, "--spectrum", "0,1/2,1")
    _, second, _ = run(capsys, "decide", "--seq", DYADIC, "--spectrum", "0,1/2,1")
    assert first == second


def test_decide_infeasible_exit(capsys, tmp_path):
    seq = write_seq(
        tmp_path,
        {
            "B": "1",
            "explicit": ["1/3"],
            "zero_tail": {"kind": "geometric", "first": "1/4", "ratio": "1/2"},
            "b_tail": {"kind": "geometric", "first": "1/4", "ratio": "1/2"},
        },
    )
    code, out, _ = run(capsys, "decide", "--seq", seq, "--spectrum", "0,1/2,1")
    assert code == 1
    assert json.loads(out)["verdict"] == "Infeasible"


_OUT_OF_SCOPE_BYTES = """{
  "bounds": [],
  "note": "requires infinite mass on both sides: \\u03a3 d_i and \\u03a3 (B \\u2212 d_i) must both diverge; for summable diagonals see decide_finite or check_finite_rank_tail",
  "stats": [
    {
      "C": "0",
      "D": "1/2",
      "alpha": "1/2"
    }
  ],
  "verdict": "OutOfTheoremScope",
  "witnesses": []
}
"""


def test_decide_out_of_scope_exit(capsys, tmp_path):
    # the note holds Σ and −, which orjson would write raw: json.dumps writes
    # the payload, escaping them
    seq = write_seq(tmp_path, {"B": "1", "explicit": ["1/2"]})
    assert run(capsys, "decide", "--seq", seq, "--spectrum", "0,1/2,1") == (2, _OUT_OF_SCOPE_BYTES, "")


def test_decide_explain(capsys):
    code, out, _ = run(
        capsys, "decide", "--seq", DYADIC, "--spectrum", "0,1/2,1", "--explain"
    )
    assert code == 0
    profiles = json.loads(out)["explain"]["profiles"]
    assert [p["shift"] for p in profiles] == [0, -1]
    assert all(p["holds"] for p in profiles)


def test_decide_subset_spectra(capsys):
    code, out, _ = run(
        capsys, "decide", "--seq", DYADIC, "--spectrum", "0,1/2,1", "--subset-spectra"
    )
    assert code == 0
    subsets = json.loads(out)["subset_results"]
    assert subsets == [{"interior": [], "verdict": "Infeasible", "witnesses": []}]


def test_decide_subset_spectra_match_separate_runs(capsys):
    # the subsets share one statistics table; deciding each on its own must
    # give the same bytes
    spectrum = "0,1/4,1/3,1/2,3/4,1"
    code, out, _ = run(
        capsys, "decide", "--seq", DYADIC, "--spectrum", spectrum, "--subset-spectra"
    )
    main_code, main_out, _ = run(capsys, "decide", "--seq", DYADIC, "--spectrum", spectrum)
    assert code == main_code
    expected = json.loads(main_out)
    expected["subset_results"] = []
    interior = spectrum.split(",")[1:-1]
    subsets = sorted(
        ([p for i, p in enumerate(interior) if mask >> i & 1] for mask in range(2 ** len(interior) - 1)),
        key=lambda s: (len(s), [Fraction(p) for p in s]),
    )
    for subset in subsets:
        if subset:
            _, sub_out, _ = run(
                capsys, "decide", "--seq", DYADIC, "--spectrum", ",".join(["0", *subset, "1"])
            )
        else:
            _, sub_out, _ = run(capsys, "project", "--seq", DYADIC)
        sub = json.loads(sub_out)
        expected["subset_results"].append(
            {"interior": subset, "verdict": sub["verdict"], "witnesses": sub["witnesses"]}
        )
    assert len(expected["subset_results"]) == 15
    assert any(r["witnesses"] for r in expected["subset_results"])
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_decide_translate(capsys, tmp_path):
    seq = write_seq(
        tmp_path,
        {
            "B": "5/4",
            "explicit": ["3/4"],
            "zero_tail": {"kind": "geometric", "first": "1/4", "ratio": "1/2"},
            "b_tail": {"kind": "geometric", "first": "1/4", "ratio": "1/2"},
        },
    )
    code, out, _ = run(
        capsys, "decide", "--seq", seq, "--spectrum", "1/4,3/4,5/4", "--translate"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["translation"] == "1/4"
    assert payload["witnesses"] == [{"N": [1], "k": -1}, {"N": [3], "k": -2}]


def test_untranslated_spectrum_is_schema_error(capsys):
    code, _, err = run(capsys, "decide", "--seq", DYADIC, "--spectrum", "1/4,3/4,5/4")
    assert code == 64
    assert "--translate" in err


def test_spectrum_from_a_json_file(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(["0", "1/2", "1"]))
    _, want, _ = run(capsys, "decide", "--seq", DYADIC, "--spectrum", "0,1/2,1")
    code, out, _ = run(capsys, "decide", "--seq", DYADIC, "--spectrum", str(spec))
    assert code == 0
    assert out == want

    spec.write_text("[]")
    code, out, err = run(capsys, "decide", "--seq", DYADIC, "--spectrum", str(spec))
    assert code == 64
    assert out == ""
    assert "--spectrum: spectrum cannot be empty" in err


def test_non_increasing_spectrum_exits_64(capsys):
    code, out, err = run(capsys, "decide", "--seq", DYADIC, "--spectrum", "0,1/2,1/4,1")
    assert code == 64
    assert out == ""
    assert "--spectrum: " in err and "increasing" in err


_CASE_ONE = {
    "B": "1",
    "explicit": ["1/2"],
    "zero_tail": {"kind": "divergent"},
    "b_tail": {"kind": "geometric", "first": "1/4", "ratio": "1/2"},
}


def test_witnesses_command(capsys):
    code, out, _ = run(capsys, "witnesses", "--seq", DYADIC, "--spectrum", "0,1/2,1")
    assert code == 0
    assert json.loads(out)["witnesses"] == [{"N": [1], "k": -1}, {"N": [3], "k": -2}]


def test_witnesses_case_one_exits_zero(capsys, tmp_path):
    # feasible outright, with no witness list: the exit code follows the
    # verdict, as for decide
    seq = write_seq(tmp_path, _CASE_ONE)
    code, out, _ = run(capsys, "witnesses", "--seq", seq, "--spectrum", "0,1/2,1")
    assert code == 0
    assert json.loads(out) == {"bounds": [], "verdict": "FeasibleCaseI", "witnesses": []}
    decide_code, _, _ = run(capsys, "decide", "--seq", seq, "--spectrum", "0,1/2,1")
    assert decide_code == code


def test_witnesses_out_of_scope_prints_the_decision(capsys, tmp_path):
    seq = write_seq(tmp_path, {"B": "1", "explicit": ["1/2"]})
    code, out, _ = run(capsys, "witnesses", "--seq", seq, "--spectrum", "0,1/2,1")
    assert code == 2
    _, decided, _ = run(capsys, "decide", "--seq", seq, "--spectrum", "0,1/2,1")
    assert out == decided
    assert json.loads(out)["verdict"] == "OutOfTheoremScope"


@pytest.mark.parametrize("command", ["decide", "witnesses"])
def test_explain_without_a_z_layout_reports_the_reason(capsys, tmp_path, command):
    # exact zeros next to a zero tail: Case II with witnesses, but no
    # nondecreasing ℤ-indexed arrangement to profile
    seq = write_seq(
        tmp_path,
        {
            "B": "1",
            "explicit": ["1/2"],
            "zero_count": 3,
            "zero_tail": {"kind": "geometric", "first": "1/4", "ratio": "1/2"},
            "b_tail": {"kind": "geometric", "first": "1/4", "ratio": "1/2"},
        },
    )
    code, out, _ = run(capsys, command, "--seq", seq, "--spectrum", "0,1/2,1", "--explain")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "FeasibleCaseII"
    assert payload["explain"]["profiles"] is None
    assert "both exact zeros and a zero tail" in payload["explain"]["note"]


def test_project_command(capsys):
    code, out, _ = run(capsys, "project", "--seq", DYADIC)
    assert code == 1
    assert json.loads(out)["verdict"] == "Infeasible"


def test_realize_verify_round_trip(capsys, tmp_path):
    out_path = str(tmp_path / "real.json")
    code, _, _ = run(
        capsys,
        "realize",
        "--seq",
        DYADIC,
        "--spectrum",
        "0,1/2,1",
        "--witness",
        '{"N": [1], "k": -1}',
        "--trunc",
        "4",
        "--out",
        out_path,
    )
    assert code == 0
    payload = json.loads(Path(out_path).read_text())
    assert payload["matrix"]["dim"] == len(payload["diagonal_exact"])

    code, out, _ = run(
        capsys,
        "verify",
        "--matrix",
        out_path,
        "--spectrum",
        "0,1/2,1",
        "--witness",
        '{"N": [1], "k": -1}',
    )
    assert code == 0
    report = json.loads(out)
    assert report["diagonal_exact_match"] is True
    assert report["within_tolerance"] is True
    assert report["witness_multiplicities_ok"] is True


def test_realize_stdout_matches_the_out_file(capsys, tmp_path):
    argv = ["realize", "--seq", DYADIC, "--spectrum", "0,1/2,1"]
    argv += ["--witness", '{"N": [1], "k": -1}', "--trunc", "4"]
    out_path = tmp_path / "real.json"
    code, out, _ = run(capsys, *argv, "--out", str(out_path))
    assert (code, out) == (0, "")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == out_path.read_text(encoding="utf-8")


@pytest.mark.parametrize("value", [5, {"a": 1}], ids=["number", "object"])
def test_verify_diagonal_exact_not_an_array_exits_64(capsys, tmp_path, value):
    mat = tmp_path / "m.json"
    mat.write_text(
        json.dumps({"matrix": {"dim": 1, "rows": [[0.5]]}, "diagonal_exact": value})
    )
    code, out, err = run(capsys, "verify", "--matrix", str(mat), "--spectrum", "0,1/2,1")
    assert code == 64
    assert out == ""
    assert "--matrix.diagonal_exact: expected an array of rationals" in err


def test_verify_failure_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "rows": [[0.0, 0.0], [0.0, 0.47]]}))
    code, out, _ = run(capsys, "verify", "--matrix", str(bad), "--spectrum", "0,1/2,1")
    assert code == 1
    assert json.loads(out)["within_tolerance"] is False


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
def test_verify_non_finite_entry_exits_64(capsys, tmp_path, value):
    mat = tmp_path / "m.json"
    mat.write_text('{"dim": 2, "rows": [[%s, 0.0], [0.0, 1.0]]}' % value)
    code, out, err = run(capsys, "verify", "--matrix", str(mat), "--spectrum", "0,1/2,1")
    assert code == 64
    assert out == ""
    assert "--matrix.rows[0][0]" in err


@pytest.mark.parametrize("zeros, where", [(400, "--matrix.rows[1][1]"), (5000, "--matrix: invalid JSON")])
def test_verify_integer_beyond_float_range_exits_64(capsys, tmp_path, zeros, where):
    # 5000 digits pass the float range and also the interpreter's int parsing limit
    mat = tmp_path / "m.json"
    mat.write_text('{"dim": 2, "rows": [[0.5, 0.0], [0.0, -1%s]]}' % ("0" * zeros))
    code, out, err = run(capsys, "verify", "--matrix", str(mat), "--spectrum", "0,1/2,1")
    assert code == 64
    assert out == ""
    assert where in err


_PAST_THE_DIGIT_LIMIT = "1/" + "9" * 5000  # a denominator int() refuses to parse


@pytest.mark.parametrize("where", ["--seq", "--spectrum", "--diag"])
def test_rational_past_the_digit_limit_exits_64(capsys, tmp_path, where):
    seq = write_seq(tmp_path, {"B": "1", "explicit": [_PAST_THE_DIGIT_LIMIT, "1/2"]})
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"dim": 2, "rows": [[0.5, 0.0], [0.0, 1.0]]}))
    argv = {
        "--seq": ["decide", "--seq", seq, "--spectrum", "0,1/2,1"],
        "--spectrum": ["decide", "--seq", DYADIC, "--spectrum", f"0,{_PAST_THE_DIGIT_LIMIT},1"],
        "--diag": ["verify", "--matrix", str(mat), "--spectrum", "0,1/2,1", "--diag", f"1/2,{_PAST_THE_DIGIT_LIMIT}"],
    }[where]
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    path = {"--seq": "--seq.explicit[0]: ", "--spectrum": "--spectrum: ", "--diag": "--diag: "}[where]
    assert path + "invalid rational" in err and "digits" in err


_PAST_THE_FLOAT_RANGE = "1" + "0" * 400  # a rational whose float() overflows


@pytest.mark.parametrize(
    "where",
    [
        "--diag", "--matrix.diagonal_exact", "--spectrum", "--translate", "explore3 --svg", "explore4 --svg",
        "realize --seq", "realize --translate",
    ],
)
def test_rational_past_the_float_range_exits_64_before_any_output(capsys, tmp_path, where):
    mat = tmp_path / "m.json"
    matrix = {"dim": 2, "rows": [[0.5, 0.0], [0.0, 1.0]]}
    exact = ["1/2", _PAST_THE_FLOAT_RANGE] if where == "--matrix.diagonal_exact" else ["1/2", "1"]
    mat.write_text(json.dumps({"matrix": matrix, "diagonal_exact": exact}))
    big = write_seq(tmp_path, {**DYADIC_DOC, "B": _PAST_THE_FLOAT_RANGE})
    # the dyadic sequence moved up by the big value, for realize --translate
    s = int(_PAST_THE_FLOAT_RANGE)
    moved = write_seq(tmp_path, {**DYADIC_DOC, "B": str(s + 1), "explicit": [f"{2 * s + 1}/2"]}, "moved.json")
    written = tmp_path / "written"  # the --svg or --out path, which must stay unwritten
    verify = ["verify", "--matrix", str(mat)]
    realize = ["realize", "--witness", '{"N": [1], "k": -1}', "--trunc", "4", "--out", str(written)]
    argv = {
        "--diag": [*verify, "--spectrum", "0,1/2,1", "--diag", f"1/2,{_PAST_THE_FLOAT_RANGE}"],
        "--matrix.diagonal_exact": [*verify, "--spectrum", "0,1/2,1"],
        "--spectrum": [*verify, "--spectrum", f"0,1/2,{_PAST_THE_FLOAT_RANGE}"],
        "--translate": [*verify, f"--spectrum=-{_PAST_THE_FLOAT_RANGE},1/2,1", "--translate"],
        "explore3 --svg": ["explore3", "--seq", big, "--svg", str(written)],
        "explore4 --svg": ["explore4", "--seq", big, "--grid", "4", "--svg", str(written)],
        "realize --seq": [*realize, "--seq", big, "--spectrum", f"0,1/2,{_PAST_THE_FLOAT_RANGE}"],
        "realize --translate": [*realize, "--seq", moved, "--spectrum", f"{s},{2 * s + 1}/2,{s + 1}", "--translate"],
    }[where]
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == "" and not written.exists()
    assert f"{where.split()[-1]}: " in err and "too large for a float" in err


def test_verify_diag_override(capsys, tmp_path):
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"dim": 2, "rows": [[0.5, 0.0], [0.0, 1.0]]}))
    code, out, _ = run(
        capsys,
        "verify",
        "--matrix",
        str(mat),
        "--spectrum",
        "0,1/2,1",
        "--diag",
        "1/2,1",
    )
    assert code == 0
    assert json.loads(out)["diagonal_exact_match"] is True


@pytest.mark.parametrize("command", ["decide", "witnesses", "realize"])
@pytest.mark.parametrize(
    "spectrum, flags", [("0,2", ()), ("1/4,3/4", ("--translate",))], ids=["plain", "translated"]
)
def test_spectrum_with_another_b_exits_64(capsys, command, spectrum, flags):
    extra = ["--witness", '{"N": [], "k": 0}', "--trunc", "4"] if command == "realize" else []
    code, out, err = run(capsys, command, "--seq", DYADIC, "--spectrum", spectrum, *flags, *extra)
    assert (code, out) == (64, "")
    last = spectrum.split(",")[-1]
    assert f"--spectrum: the sequence's B=1 differs from the spectrum's last point {last}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["realize", "--seq", DYADIC, "--trunc", "4"],
        ["verify", "--matrix", str(DATA / "golden" / "realize_t8.json")],
    ],
    ids=lambda argv: argv[0],
)
def test_realize_witness_of_the_wrong_length_exits_64(capsys, argv):
    # realize and verify read --witness through one loader, which checks its length
    code, out, err = run(capsys, *argv, "--spectrum", "0,1/2,1", "--witness", '{"N": [1, 1], "k": 0}')
    assert (code, out) == (64, "")
    assert "--witness.N: expected one multiplicity per interior point (1), got 2" in err


def test_verify_diagonal_of_the_wrong_length_exits_64(capsys, tmp_path):
    real = tmp_path / "real.json"
    argv = ["--seq", DYADIC, "--spectrum", "0,1/2,1", "--witness", '{"N": [1], "k": -1}']
    assert run(capsys, "realize", *argv, "--trunc", "4", "--out", str(real))[0] == 0
    payload = json.loads(real.read_text())
    dim = payload["matrix"]["dim"]
    payload["diagonal_exact"].pop()
    short = tmp_path / "short.json"
    short.write_text(json.dumps(payload))
    for matrix, extra, where in (
        (real, ["--diag", "1/2,1/2"], "--diag"),
        (short, [], "--matrix.diagonal_exact"),
    ):
        code, out, err = run(capsys, "verify", "--matrix", str(matrix), "--spectrum", "0,1/2,1", *extra)
        assert (code, out) == (64, "")
        assert f"{where}: expected one entry per row ({dim}), got {2 if extra else dim - 1}" in err


def test_realize_rejected_witness_exits_65(capsys, tmp_path):
    # N = 2 fails the trace congruence, so no truncation level realizes it
    code, _, err = run(
        capsys,
        "realize",
        "--seq",
        DYADIC,
        "--spectrum",
        "0,1/2,1",
        "--witness",
        '{"N": [2], "k": -1}',
        "--trunc",
        "4",
    )
    assert code == 65
    assert "error: the trace equation has no integer solution for this sequence and witness" in err


# the dyadic sequence without its b-tail: Σ d_i converges
_NO_B_TAIL = {k: v for k, v in DYADIC_DOC.items() if k != "b_tail"}


@pytest.mark.parametrize(
    "spectrum, witness, message",
    [
        # a two-point spectrum: the trace congruence alone fails
        ("0,1", '{"N": [], "k": 0}', "the trace equation has no integer solution"),
        # a summable side: the trace balances but a mass bound fails
        ("0,1/3,1", '{"N": [3], "k": -2}', "the witness fails a mass bound"),
    ],
    ids=["two-point", "summable"],
)
def test_realize_witness_no_level_realizes_exits_65(capsys, tmp_path, spectrum, witness, message):
    seq = DYADIC if spectrum == "0,1" else write_seq(tmp_path, _NO_B_TAIL)
    code, out, err = run(
        capsys, "realize", "--seq", seq, "--spectrum", spectrum, "--witness", witness, "--trunc", "0"
    )
    assert (code, out) == (65, "")
    assert f"error: {message}" in err and "no truncation level" in err


def test_summable_side_exits_2_on_every_command(capsys, tmp_path):
    # decide answers OUT_OF_SCOPE; the sweeps say so with the same note and
    # print no rows and write no file
    seq = write_seq(tmp_path, _NO_B_TAIL)
    code, out, _ = run(capsys, "decide", "--seq", seq, "--spectrum", "0,1/2,1")
    assert code == 2
    note = json.loads(out)["note"]
    csv, svg = tmp_path / "region.csv", tmp_path / "region.svg"
    for argv in (
        ["explore3", "--seq", seq, "--svg", str(svg)],
        ["explore4", "--seq", seq, "--grid", "4", "--out", str(csv), "--svg", str(svg)],
        ["explore4", "--seq", seq, "--grid", "4"],
    ):
        assert run(capsys, *argv) == (2, "", f"error: {note}\n")
    assert not csv.exists() and not svg.exists()


def test_realize_truncation_too_small_exits_70(capsys, tmp_path):
    seq = write_seq(
        tmp_path,
        {
            "B": "1",
            "zero_tail": {"kind": "geometric", "first": "1/2", "ratio": "1/2"},
            "b_tail": {"kind": "geometric", "first": "1/4", "ratio": "1/2"},
        },
    )
    code, _, err = run(
        capsys,
        "realize",
        "--seq",
        seq,
        "--spectrum",
        "0,1/2,1",
        "--witness",
        '{"N": [1], "k": -1}',
        "--trunc",
        "0",
    )
    assert code == 70
    assert "1" in err  # reports the minimal working truncation


def test_realize_runs_no_statistics_pass(monkeypatch, tmp_path):
    # realize_truncated checks the witness on its one finite build, from the
    # trace residue and the partial sums, so no threshold statistic is evaluated
    passes = []
    for name in ("findiag.sequences", "findiag.decide", "findiag.explore"):
        mod = importlib.import_module(name)
        real = mod._stats_pass

        def counted(seq, alphas, real=real):
            passes.append(Counter(alphas))
            return real(seq, alphas)

        monkeypatch.setattr(mod, "_stats_pass", counted)
    argv = ["realize", "--seq", DYADIC, "--spectrum", "0,1/2,1", "--witness", '{"N":[1],"k":-1}']
    assert main(argv + ["--trunc", "8", "--out", str(tmp_path / "real.json")]) == 0
    assert passes == []
    # the counters see the passes that decide makes
    assert main(["decide", "--seq", DYADIC, "--spectrum", "0,1/2,1"]) == 0
    assert passes == [Counter({F(1, 2): 2})]


def test_realize_case_one_skips_the_witness_check(capsys, tmp_path):
    # C(B/2) diverges: the construction refuses the divergent tail before it
    # reads the witness, and a finite truncation of it is out of scope
    seq = write_seq(tmp_path, _CASE_ONE)
    code, out, err = run(
        capsys,
        "realize",
        "--seq",
        seq,
        "--spectrum",
        "0,1/2,1",
        "--witness",
        '{"N": [1], "k": 0}',
        "--trunc",
        "4",
    )
    assert code == 2
    assert out == ""
    assert "error: divergent tails admit no finite truncation" in err


def test_malformed_sequence_exits_64(capsys, tmp_path):
    p = tmp_path / "garbage.json"
    p.write_text("not json")
    code, _, err = run(capsys, "decide", "--seq", str(p), "--spectrum", "0,1/2,1")
    assert code == 64


@pytest.mark.parametrize(
    "command, flag",
    [("verify", "--matrix"), ("decide", "--seq")],
)
def test_deeply_nested_json_exits_64(capsys, tmp_path, command, flag):
    # nesting past the interpreter's recursion limit is malformed input too
    p = tmp_path / "deep.json"
    p.write_text("[" * 200_000)
    code, out, err = run(capsys, command, flag, str(p), "--spectrum", "0,1/2,1")
    assert code == 64
    assert out == ""
    assert f"{flag}: invalid JSON" in err


@pytest.mark.parametrize("flag", ["--seq", "--matrix", "--spectrum"])
def test_file_that_is_not_utf8_exits_64(capsys, tmp_path, flag):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe" + "[0, 1]".encode("utf-16-le"))
    argv = {
        "--seq": ["decide", "--seq", str(bad), "--spectrum", "0,1/2,1"],
        "--matrix": ["verify", "--matrix", str(bad), "--spectrum", "0,1/2,1"],
        "--spectrum": ["decide", "--seq", DYADIC, "--spectrum", str(bad)],
    }[flag]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (64, "")
    assert f"error: {flag}: cannot read {bad}: 'utf-8' codec can't decode byte 0xff" in err


def _verify_golden(capsys):
    golden = str(DATA / "golden" / "realize_t8.json")
    return run(capsys, "verify", "--matrix", golden, "--spectrum", "0,1/2,1", "--witness", '{"N": [1], "k": -1}')


def test_verify_reads_the_same_without_orjson(capsys, monkeypatch):
    # every document orjson refuses is read by json.loads, to the same bytes
    import orjson

    first = _verify_golden(capsys)
    refused = []

    def refuse(text):
        refused.append(len(text))
        raise orjson.JSONDecodeError("refused", text, 0)

    monkeypatch.setattr(orjson, "loads", refuse)
    assert _verify_golden(capsys) == first
    assert first[0] == 0 and len(refused) == 1


def test_verify_diagonal_past_64_bits_keeps_its_verdict(capsys, tmp_path):
    # orjson reads 2**64 as a float, which the diagonal refuses: json.loads's
    # integer is compared, and it is not the float on the diagonal
    doc = copy.deepcopy(_REAL_DOC)
    doc["diagonal_exact"][0] = 2**64
    real = tmp_path / "real.json"
    real.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--matrix", str(real), "--spectrum", "0,1/2,1")
    assert code == 1
    assert json.loads(out)["diagonal_exact_match"] is False


def test_unknown_flag_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decide", "--seq", DYADIC, "--spectrum", "0,1/2,1", "--frobnicate"])
    assert exc.value.code == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "--spectrum", "0,1/2,1"],
        ["witnesses", "--spectrum", "0,1/2,1"],
        ["project"],
        ["realize", "--spectrum", "0,1/2,1", "--witness", '{"N":[1],"k":-1}', "--trunc", "0"],
        ["explore3"],
        ["explore4", "--grid", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_workers_option_exits_64(capsys, argv):
    # every computation runs in the calling process, so no command takes --workers
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seq", DYADIC, "--workers", "1"])
    assert exc.value.code == 64
    assert "unrecognized arguments: --workers 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--grid", "2"), ("--n-max", "0"), ("--trunc", "-1"), ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf")],
)
def test_out_of_range_argument_exits_64(capsys, tmp_path, flag, value):
    # the calls are otherwise valid, so only the argument check can refuse them
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"dim": 2, "rows": [[0.0, 0.0], [0.0, 1.0]]}))
    argv = {
        "--grid": ["explore4", "--seq", DYADIC],
        "--n-max": ["explore3", "--seq", DYADIC],
        "--trunc": ["realize", "--seq", DYADIC, "--spectrum", "0,1/2,1", "--witness", '{"N":[1],"k":-1}'],
        "--tol": ["verify", "--matrix", str(mat), "--spectrum", "0,1"],
    }[flag]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 64
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument {flag}: expected" in out.err


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_successive_calls_match_fresh_parsers(capsys):
    calls = [
        ["decide", "--seq", DYADIC, "--spectrum", "0,1/2,1", "--frobnicate"],
        ["decide", "--seq", DYADIC, "--spectrum", "0,1/2,1"],
        ["explore3", "--seq", DYADIC, "--n-max", "4"],
        ["witnesses", "--seq", DYADIC, "--spectrum", "0,1/4,1/2,1", "--explain"],
        ["explore4", "--seq", DYADIC, "--grid", "5"],
        ["explore3", "--seq", DYADIC],
        ["project", "--seq", DYADIC],
        ["witnesses", "--seq", DYADIC, "--spectrum", "0,1/2,1"],
    ]
    assert cli._parser() is cli._parser()
    shared = [_outcome(capsys, argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [64, 0, 0, 0, 0, 0, 1, 0]


def test_construction_error_exits_70(capsys, monkeypatch):
    def broken(*args):
        raise ConstructionError("totals must balance by construction")

    monkeypatch.setattr("findiag.cli.realize_truncated", broken)
    code, out, err = run(
        capsys,
        "realize",
        "--seq",
        DYADIC,
        "--spectrum",
        "0,1/2,1",
        "--witness",
        '{"N": [1], "k": -1}',
        "--trunc",
        "4",
    )
    assert code == 70
    assert out == ""
    assert "totals must balance" in err


def test_missing_subcommand_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64


def test_explore3_command(capsys):
    code, out, _ = run(capsys, "explore3", "--seq", DYADIC)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 7
    assert payload["points"] == ["1/8", "1/6", "1/4", "1/2", "3/4", "5/6", "7/8"]


def test_explore3_case_one_is_all_of_interval(capsys, tmp_path):
    seq = write_seq(tmp_path, _CASE_ONE)
    code, out, _ = run(capsys, "explore3", "--seq", seq)
    assert code == 0
    assert json.loads(out) == {"all_of_interval": {"B": "1"}}


def test_explore4_command(capsys, tmp_path):
    csv_path = tmp_path / "region.csv"
    svg_path = tmp_path / "region.svg"
    code, _, _ = run(
        capsys,
        "explore4",
        "--seq",
        DYADIC,
        "--grid",
        "8",
        "--out",
        str(csv_path),
        "--svg",
        str(svg_path),
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "A1,A2,feasible"
    assert len(lines) == 22
    assert svg_path.read_text().startswith("<svg")


def test_explore4_stdout(capsys):
    code, out, _ = run(capsys, "explore4", "--seq", DYADIC, "--grid", "4")
    assert code == 0
    assert out.startswith("A1,A2,feasible\n")


def test_realize_pretty_grid(capsys):
    code, out, _ = run(
        capsys,
        "realize",
        "--seq",
        DYADIC,
        "--spectrum",
        "0,1/2,1",
        "--witness",
        '{"N": [1], "k": -1}',
        "--trunc",
        "1",
        "--pretty",
    )
    assert code == 0
    assert "0.50000000" in out
    rows = out.strip().splitlines()
    assert len(rows) == len(rows[0].split())  # square grid


def test_translate_realize_shifts_back(capsys, tmp_path):
    seq = write_seq(
        tmp_path,
        {
            "B": "5/4",
            "explicit": ["3/4"],
            "zero_tail": {"kind": "geometric", "first": "1/4", "ratio": "1/2"},
            "b_tail": {"kind": "geometric", "first": "1/4", "ratio": "1/2"},
        },
    )
    out_path = str(tmp_path / "real.json")
    code, _, _ = run(
        capsys,
        "realize",
        "--seq",
        seq,
        "--spectrum",
        "1/4,3/4,5/4",
        "--translate",
        "--witness",
        '{"N": [1], "k": -1}',
        "--trunc",
        "2",
        "--out",
        out_path,
    )
    assert code == 0
    payload = json.loads(Path(out_path).read_text())
    diag = [F(v) for v in payload["diagonal_exact"]]
    assert min(diag) >= F(1, 4) and max(diag) <= F(5, 4)  # raw frame restored
    code, out, _ = run(
        capsys, "verify", "--matrix", out_path, "--spectrum", "1/4,3/4,5/4", "--translate"
    )
    assert code == 0
    assert json.loads(out)["within_tolerance"] is True


def _realize_on_one_to_two(capsys, tmp_path, *extra):
    """realize --translate on the dyadic sequence moved to [1, 2]."""
    seq = write_seq(
        tmp_path,
        {
            "B": "2",
            "explicit": ["3/2"],
            "zero_tail": {"kind": "geometric", "first": "1/4", "ratio": "1/2"},
            "b_tail": {"kind": "geometric", "first": "1/4", "ratio": "1/2"},
        },
    )
    return run(
        capsys, "realize", "--seq", seq, "--spectrum", "1,3/2,2", "--translate",
        "--witness", '{"N": [1], "k": -1}', "--trunc", "1", *extra,
    )


def test_translate_verify_checks_the_diagonal_it_was_given(capsys, tmp_path):
    out_path = tmp_path / "real.json"
    code, _, _ = _realize_on_one_to_two(capsys, tmp_path, "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["diagonal_exact"][2] == "3/2"
    payload["matrix"]["rows"][2][2] = 1.75  # the record still says 3/2
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(payload))
    verify = ("verify", "--spectrum", "1,3/2,2", "--translate", "--matrix")
    code, out, _ = run(capsys, *verify, str(out_path))
    assert code == 0 and json.loads(out)["diagonal_exact_match"] is True
    code, out, _ = run(capsys, *verify, str(tampered))
    assert code == 1 and json.loads(out)["diagonal_exact_match"] is False


def test_translate_verify_pretty_prints_the_input_matrix(capsys, tmp_path):
    out_path = tmp_path / "real.json"
    _realize_on_one_to_two(capsys, tmp_path, "--out", str(out_path))
    _, grid, _ = _realize_on_one_to_two(capsys, tmp_path, "--pretty")
    code, out, _ = run(
        capsys, "verify", "--matrix", str(out_path), "--spectrum", "1,3/2,2", "--translate", "--pretty"
    )
    assert code == 0
    assert out == grid
    assert out.split()[0] == "1.25000000"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# --------------------------------------------------------------------------
# Exit codes by cause, under schema-level mutations of the golden inputs
# --------------------------------------------------------------------------

_DROP = "<drop>"  # the mutation that deletes a node


def _paths(node, path=()):
    """The path of every node below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutated(doc, mutations):
    """A copy of doc with each (path, value) applied in turn; a path that an
    earlier mutation took away is skipped."""
    doc = copy.deepcopy(doc)
    for (*parents, last), value in mutations:
        try:
            node = functools.reduce(operator.getitem, parents, doc)
            if value == _DROP:
                del node[last]
            else:
                node[last] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            pass
    return doc


# a deleted node half the time (a missing tail leaves a summable side), else
# wrong types, rationals out of range, ratios ≥ 1, a first element ≥ B,
# another B, and whole tails
_VALUES = st.just(_DROP) | st.sampled_from(
    [
        None, True, 0, 3, -1, 1.5, "x", "1/0", "-1/4", "0", "1/3", "3/4", "9/10", "1", "3/2", "2", "inf",
        [], {}, ["1/2", "3/4"], {"kind": "divergent"}, {"kind": "geometric", "first": "1/8", "ratio": "3/4"},
    ]
)
_SEQ_PATHS = [*_paths(DYADIC_DOC), ("unknown",), ("zero_tail", "unknown")]
_REAL_PATHS = [p for p in _paths(_REAL_DOC) if p[0] != "report"]
# the first two spectra and witnesses pair up: the dyadic sequence realizes
# them, the second from level 2 on
_SPECTRA = [
    "0,1/2,1", "0,1/8,1", "0,1", "0,1/3,1", "0,1/4,1/2,3/4,1", "0,2", "1/4,3/4", "0,1/2,1/4,1",
    "0,1/2,1/2,1", "", "0,x,1",
]
_WITNESSES = [
    '{"N": [1], "k": -1}', '{"N": [4], "k": -1}', '{"N": [3], "k": -2}', '{"N": [2], "k": -1}',
    '{"N": [], "k": 0}', '{"N": [1, 1], "k": 0}', '{"N": [0], "k": 0}', '{"N": ["1"], "k": 0}',
    '{"N": [1], "k": 0.5}', '{"N": [1]}', "[1]", "not json",
]


@st.composite
def _calls(draw):
    """(files, argv) for one command on mutated golden inputs; {dir} in argv
    is the directory the files are written to."""
    mutations = st.lists(st.tuples(st.sampled_from(_SEQ_PATHS), _VALUES), max_size=2)
    files = {"seq.json": _mutated(DYADIC_DOC, draw(mutations))}
    i = draw(st.integers(0, len(_SPECTRA) - 1))
    j = i if i < 2 and draw(st.booleans()) else draw(st.integers(0, len(_WITNESSES) - 1))
    seq, spectrum = ["--seq", "{dir}/seq.json"], ["--spectrum", _SPECTRA[i]]
    witness = ["--witness", _WITNESSES[j]]
    translate = ["--translate"] if draw(st.booleans()) else []
    commands = ["decide", "witnesses", "project", "realize", "verify", "explore3", "explore4"]
    command = draw(st.sampled_from(commands))
    if command in ("decide", "witnesses"):
        return files, [command, *seq, *spectrum, *translate, *draw(st.sampled_from([[], ["--explain"]]))]
    if command == "project":
        return files, [command, *seq]
    if command == "realize":
        trunc = ["--trunc", str(draw(st.integers(0, 4)))]
        return files, [command, *seq, *spectrum, *translate, *witness, *trunc, "--out", "{dir}/real.json"]
    if command == "verify":
        mutations = st.lists(st.tuples(st.sampled_from(_REAL_PATHS), _VALUES), max_size=2)
        files["real.json"] = _mutated(_REAL_DOC, draw(mutations))
        diag = draw(st.sampled_from([[], ["--diag", "1/2,1/2"]]))
        optional = draw(st.sampled_from([[], witness]))
        return files, [command, "--matrix", "{dir}/real.json", *spectrum, *translate, *diag, *optional]
    if command == "explore3":
        return files, [command, *seq, "--n-max", str(draw(st.integers(1, 8))), "--svg", "{dir}/p.svg"]
    return files, [command, *seq, "--grid", str(draw(st.integers(3, 6))), "--out", "{dir}/r.csv"]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(call=_calls())
def test_exit_codes_follow_the_cause_under_input_mutations(capsys, call):
    """Every command, run in-process on golden inputs with up to two
    schema-level mutations, exits by cause: never an unexpected error, and
    70 only for a truncation level below the smallest sufficient one."""
    files, argv = call
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in files.items():
            Path(tmp, name).write_text(json.dumps(doc))
        code, _, err = _outcome(capsys, [a.replace("{dir}", tmp) for a in argv])
    assert "unexpected error" not in err
    assert code in (0, 1, 2, 64, 65) or (code == 70 and "smallest sufficient level" in err), (code, err)
