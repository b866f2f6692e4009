"""Running jobs: in-process `findiag` CLI calls with captured output, a
per-job wall limit, output digests and the checks.

Import this module only after `src/` is on `sys.path`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

import numpy as np

import findiag.cli as cli

from workloads import Job, Result, Workload

# No input may hang a run: the program has no work budget of its own.
JOB_LIMIT_S = 10.0

# Eigen-solver floats can differ in the last bits between CPUs; the digest
# leaves them out and check_matrix tests them against a tolerance instead.
_SOLVER_FLOATS = re.compile(rb'("(?:eigenvalues|spectrum_distance)": )(\[[^\]]*\]|[^,\n}]*)')


# Host speed.  On a shared host the same work runs up to 1.9x slower for tens
# of seconds at a time, with no steal time and the other core idle, so raw
# wall times of two runs differ by more than any useful bound.  Every timing
# is therefore also reported scaled by REF_KERNEL_S over the median time of a
# fixed kernel that uses no findiag code, run next to it: a program change
# moves the scaled time, a slow spell of the host moves it much less.
REF_KERNEL_S = 0.85e-3  # the kernel's median on an idle host (Xeon, Python 3.11.7, numpy 2.4.6)
SPEED_WINDOW = 8  # kernel samples on each side of a job

_VALUES = [Fraction(i, 32) for i in range(1, 32)] + [Fraction(1, 3) ** k for k in range(1, 9)]
_ALPHAS = [Fraction(j, 6) for j in range(1, 6)]
_FLOATS = [k / 7 for k in range(300)]
_MATRIX = np.add.outer(np.arange(32.0), np.arange(32.0)) % 5.0


def _kernel() -> None:
    for alpha in _ALPHAS:
        C = sum((v for v in _VALUES if v < alpha), Fraction(0))
        D = sum((1 - v for v in _VALUES if v >= alpha), Fraction(0))
        ((1 - alpha) * C + alpha * D) / ((1 - alpha) * alpha)
    json.loads(json.dumps(_FLOATS))
    np.linalg.eigvalsh(_MATRIX)


def kernel_seconds() -> float:
    """Time the speed kernel: exact threshold sums over rationals, a JSON
    round trip of floats and a small symmetric eigen-solve, the three kinds
    of work the program does.  The first run only warms the caches, so that
    what the previous job left in them does not matter."""
    _kernel()
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def speed_scales(kernels: List[float]) -> List[float]:
    """REF_KERNEL_S over the median kernel time within SPEED_WINDOW samples."""
    w = SPEED_WINDOW
    return [REF_KERNEL_S / statistics.median(kernels[max(0, i - w) : i + w + 1]) for i in range(len(kernels))]


class JobTimeout(BaseException):
    """Raised from SIGALRM.  Not an Exception, so the CLI's own catch-all
    cannot turn it into an exit code."""


def _on_alarm(signum, frame):
    raise JobTimeout()


@contextlib.contextmanager
def alarm_handler():
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def call_cli(argv: List[str]) -> Result:
    """`findiag.cli.main(argv)` with stdout and stderr captured as bytes.

    `main` is looked up on the module at each call so that a tracer's
    replacement is the one called.
    """
    out, err = io.BytesIO(), io.BytesIO()
    out_text = io.TextIOWrapper(out, encoding="utf-8", write_through=True)
    err_text = io.TextIOWrapper(err, encoding="utf-8", write_through=True)
    with contextlib.redirect_stdout(out_text), contextlib.redirect_stderr(err_text):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            rc = exc.code if isinstance(exc.code, int) else 1
    out_text.flush()
    err_text.flush()
    return rc, out.getvalue(), err.getvalue()


@dataclass
class Outcome:
    index: int
    seconds: float  # wall time of the job's calls
    kernel: float  # wall time of the speed kernel run just before them
    digest: str
    errors: List[str]

    @property
    def failed(self) -> bool:
        return bool(self.errors)


def _digest(results: List[Result], outputs: List[bytes]) -> str:
    h = hashlib.sha256()
    for rc, out, err in results:
        h.update(b"%d\n" % rc)
        h.update(_SOLVER_FLOATS.sub(rb"\1~", out))
        h.update(b"\0")
        h.update(err)
        h.update(b"\0")
    for data in outputs:
        h.update(_SOLVER_FLOATS.sub(rb"\1~", data))
        h.update(b"\0")
    return h.hexdigest()[:16]


def run_job(
    job: Job,
    workload: Workload,
    workdir: str,
    check: bool = True,
    reference: Optional[str] = None,
    limit: float = JOB_LIMIT_S,
) -> Outcome:
    """Write the inputs, time the speed kernel and then the calls, then
    (untimed) digest and check the outputs and remove them.  Needs
    `alarm_handler()` active."""
    os.makedirs(workdir, exist_ok=True)
    for name, text in job.files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    kernel = kernel_seconds()
    results: List[Result] = []
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            for c in range(len(job.calls)):
                results.append(call_cli(job.argv(c, workdir)))
                if results[-1][0] != 0:
                    break
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        pass
    seconds = time.perf_counter() - start

    outputs = []
    for name in job.outputs:
        path = os.path.join(workdir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                outputs.append(fh.read())
    digest = _digest(results, outputs)
    errors: List[str] = []
    if seconds >= limit:
        errors.append(f"passed the {limit:g} s wall limit")
    elif reference is not None and digest != reference:
        errors.append(f"digest {digest} differs from the reference {reference}")
    elif check:
        try:
            errors += workload.check(job, results, call_cli, workdir)
        except Exception as exc:  # a malformed output is a failed job, not a crash
            errors.append(f"check raised {type(exc).__name__}: {exc}")
    for name in job.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(workdir, name))
    return Outcome(job.index, seconds, kernel, digest, errors)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
