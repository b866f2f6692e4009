"""The benchmark's own self-test runs against this source tree.

It guards what the benchmark relies on: tracing leaves the CLI output bytes
unchanged, and a corrupted `findiag.decide.enumerate_witnesses` result is
counted as a failed job, which holds only while `decide` calls the search
through that module attribute.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
