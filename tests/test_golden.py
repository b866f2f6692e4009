"""Golden corpus: the exact output bytes of each CLI command on the dyadic
sequence, kept in tests/data/golden/.

Eigen-solver floats (`eigenvalues`, `spectrum_distance`) can differ in the
last bits between CPUs, so both sides are compared with those values masked;
every other byte must match.  After an intended change of output, rewrite
the files with `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

import pytest

from findiag.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
DYADIC = str(DATA / "dyadic.json")
# The dyadic diagonal moved to [1/4, 5/4], for --translate.
SHIFTED = str(DATA / "dyadic_shifted.json")
WITNESS = '{"N": [1], "k": -1}'
OUT = "{out}"  # replaced by a temporary path; the case's output is that file

CASES = {
    "decide.json": ["decide", "--seq", DYADIC, "--spectrum", "0,1/2,1"],
    # every interior subset, n = 0 to 3
    "decide_subsets.json": [
        "decide", "--seq", DYADIC, "--spectrum", "0,1/4,1/2,3/4,1", "--subset-spectra",
    ],
    "witnesses_explain.json": ["witnesses", "--seq", DYADIC, "--spectrum", "0,1/2,1", "--explain"],
    "realize_t8.json": [
        "realize", "--seq", DYADIC, "--spectrum", "0,1/2,1",
        "--witness", WITNESS, "--trunc", "8", "--out", OUT,
    ],
    "realize_t8_translate.json": [
        "realize", "--seq", SHIFTED, "--spectrum", "1/4,3/4,5/4", "--translate",
        "--witness", WITNESS, "--trunc", "8", "--out", OUT,
    ],
    "verify.json": [
        "verify", "--matrix", str(GOLDEN / "realize_t8.json"), "--spectrum", "0,1/2,1",
        "--witness", WITNESS,
    ],
    "explore3.json": ["explore3", "--seq", DYADIC],
    "explore3.svg": ["explore3", "--seq", DYADIC, "--svg", OUT],
    "explore4_grid8.csv": ["explore4", "--seq", DYADIC, "--grid", "8"],
    "explore4_grid8.svg": ["explore4", "--seq", DYADIC, "--grid", "8", "--svg", OUT],
}

_SOLVER_FLOATS = re.compile(rb'("(?:eigenvalues|spectrum_distance)": )(\[[^\]]*\]|[^,\n}]*)')


def run_case(name: str) -> bytes:
    """Run one case and return its stdout, or its --out file when it has one."""
    with tempfile.TemporaryDirectory() as tmp:
        out_path = str(Path(tmp) / name)
        argv = [out_path if a == OUT else a for a in CASES[name]]
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        assert code == 0, f"{name}: exit {code}"
        stdout.flush()
        if OUT in CASES[name]:
            return Path(out_path).read_bytes()
        return stdout.buffer.getvalue()


def masked(data: bytes) -> bytes:
    return _SOLVER_FLOATS.sub(rb"\1~", data)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(name):
    expected = (GOLDEN / name).read_bytes()
    assert masked(run_case(name)) == masked(expected)


def test_masking_leaves_the_matrix_rows():
    data = (GOLDEN / "realize_t8.json").read_bytes()
    assert masked(data).count(b"~") == 2
    assert b'"rows": [' in masked(data)


if __name__ == "__main__":
    for name in CASES:  # realize_t8.json first: verify reads it
        (GOLDEN / name).write_bytes(run_case(name))
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
