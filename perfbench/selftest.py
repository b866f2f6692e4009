"""Self-tests of the benchmark: generator determinism, tracing leaves the CLI
output bytes unchanged, and wrong answers and overlong jobs are counted as
failures.

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

os.environ.update(run.BLAS_ENV)
sys.path.insert(0, str(run.SRC))
import harness  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DECIDE = sys.modules["findiag.decide"]  # the package attribute `decide` is the function
WORK = run.ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"


def _cleanup():
    shutil.rmtree(WORK, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK.parent.rmdir()


def _raw(job, workdir: Path):
    """Every call's exit code, stdout and stderr, and the output files, as bytes."""
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in job.files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    results = []
    for c in range(len(job.calls)):
        results.append(harness.call_cli(job.argv(c, str(workdir))))
        if results[-1][0] != 0:
            break
    files = [(workdir / name).read_bytes() for name in job.outputs if (workdir / name).exists()]
    return results, files


def test_generator_is_deterministic():
    for workload in WORKLOADS.values():
        first = [workload.make(11, i) for i in range(8)]
        again = [workload.make(11, i) for i in range(8)]
        assert [(j.files, j.calls) for j in first] == [(j.files, j.calls) for j in again]
        other = [workload.make(12, i) for i in range(8)]
        assert [j.files for j in first] != [j.files for j in other]


def test_tracing_keeps_output_bytes():
    try:
        for workload in WORKLOADS.values():
            jobs = [workload.make(5, i) for i in range(2)]
            plain = [_raw(job, WORK / "plain") for job in jobs]
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = [_raw(job, WORK / "traced") for job in jobs]
            finally:
                tracer.uninstall()
            assert plain == traced, workload.name
            assert tracer.spans and tracer.names[tracer.spans[0][0]] == "cli.main"
        assert not hasattr(DECIDE.decide, "__wrapped__")
    finally:
        _cleanup()


def _witness_failures(corrupt, refs):
    """Failures of witness jobs 0-7 of seed 0 with enumerate_witnesses'
    result passed through `corrupt`."""
    original = DECIDE.enumerate_witnesses
    DECIDE.enumerate_witnesses = lambda *a, **k: corrupt(original(*a, **k))
    try:
        with harness.alarm_handler():
            outcomes, failures = run.closed_loop(harness, WORKLOADS["witness"], 0, 0.0, WORK, refs, min_jobs=8)
    finally:
        DECIDE.enumerate_witnesses = original
        _cleanup()
    assert len(outcomes) == 8
    return failures


def test_corrupted_witness_list_is_counted():
    # jobs 0-3 carry a planted witness, jobs 4-7 have none
    planted = ("timed job 0:", "timed job 1:", "timed job 2:", "timed job 3:")
    failures = _witness_failures(lambda found: [], {})
    assert len(failures) == 4 and all(f.startswith(planted) for f in failures), failures
    refs = json.loads((BENCH / "reference.json").read_text())["witness"]["0"]
    failures = _witness_failures(lambda found: found[:-1], refs)
    assert len(failures) == 4 and all("reference" in f for f in failures), failures


def test_reference_digest_mismatch_is_counted():
    workload = WORKLOADS["explore"]
    try:
        with harness.alarm_handler():
            _, failures = run.closed_loop(harness, workload, 3, 0.0, WORK, {"1": "0" * 16}, min_jobs=2)
    finally:
        _cleanup()
    assert len(failures) == 1 and "differs from the reference" in failures[0]


def test_job_past_the_wall_limit_fails():
    workload = WORKLOADS["witness"]
    try:
        with harness.alarm_handler():
            outcome = harness.run_job(workload.make(3, 0), workload, str(WORK), limit=0.001)
    finally:
        _cleanup()
    assert outcome.failed and "wall limit" in outcome.errors[0]


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
