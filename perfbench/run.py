"""findiag benchmark.

    python3 perfbench/run.py --workload {witness,explore,realize} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from `src/`.  One
client runs a closed loop: each job is one or two `findiag.cli.main(argv)`
calls inside this process, started after the previous job finished, always
with the default `--workers 1`.  BLAS runs one thread (the machine has two
cores).  Every job's output is checked between jobs, outside its timing.

--trace 0 reports the end-to-end metrics: set-up time (median over fresh
interpreters that import findiag and run the warm-up jobs), jobs per second
of busy time, median and 90th-percentile job time, and peak resident memory;
the failure ratio is printed above the result line.  Timings are scaled by
the host speed kernel of harness.py; the raw wall-clock figures are printed
above the result line too.

--trace 1 runs a fixed job set of the seed in alternating untraced and
traced passes, and reports the per-layer metrics of spans.py: counters from
one pass (they must repeat in every pass), self times as medians over the
traced passes, and the tracing overhead.  The spans of the first traced pass
are written to .perfbench_out/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

MIN_JOBS = 100  # at least ten samples beyond the 90th percentile
MAX_TIMED_S = 120  # keeps a run within 180 s when jobs get slow
SETUP_PROBES = 7
MAX_PASSES = 40
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith((".calls", "box_candidates", "cap_total", "cells", "rotations", "dim_total")):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("bytes_out", "bytes_in")):
        return "bytes"
    if name.endswith("ns_per_candidate"):
        return "ns"
    if name.endswith("max_spectrum_distance"):
        return "value"
    return "ratio"


def _failures(outcomes, label, sink):
    for o in outcomes:
        if o.failed:
            sink.append(f"{label} job {o.index}: {'; '.join(o.errors[:3])}")


def setup_seconds(harness, warm, work: Path):
    """Median set-up time of SETUP_PROBES fresh interpreters, each scaled by
    the speed kernel timed around it.  Returns (scaled, wall) medians."""
    plan = []
    for job in warm:
        d = work / "warmup" / str(job.index)
        d.mkdir(parents=True, exist_ok=True)
        for name, text in job.files.items():
            (d / name).write_text(text, encoding="utf-8")
        plan.append([job.argv(c, str(d)) for c in range(len(job.calls))])
    plan_path = work / "warmup" / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    env = dict(os.environ, **BLAS_ENV)
    scaled, wall = [], []
    for _ in range(SETUP_PROBES):
        kernels = [harness.kernel_seconds() for _ in range(harness.SPEED_WINDOW)]
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), str(SRC), str(plan_path)],
            capture_output=True, text=True, timeout=120, env=env, cwd=str(ROOT), check=True,
        )
        wall.append(float(done.stdout.split()[-1]) - start)
        kernels += [harness.kernel_seconds() for _ in range(harness.SPEED_WINDOW)]
        scaled.append(wall[-1] * harness.REF_KERNEL_S / statistics.median(kernels))
    return statistics.median(scaled), statistics.median(wall)


def closed_loop(harness, workload, seed: int, seconds: float, work: Path, refs: dict, min_jobs: int = MIN_JOBS):
    """Jobs 0, 1, 2, ... of the seed, one after another, for `seconds` of wall
    time and at least `min_jobs` jobs (never longer than MAX_TIMED_S).
    Returns the outcomes and the failure messages."""
    outcomes, failures = [], []
    start = time.monotonic()
    i = 0
    while True:
        elapsed = time.monotonic() - start
        if (elapsed >= seconds and len(outcomes) >= min_jobs) or elapsed >= MAX_TIMED_S:
            return outcomes, failures
        outcomes.append(
            harness.run_job(workload.make(seed, i), workload, str(work / "job"), reference=refs.get(str(i)))
        )
        _failures(outcomes[-1:], "timed", failures)
        i += 1


def _job_metrics(times):
    return {
        "jobs_per_s": len(times) / sum(times),
        "job_ms_p50": statistics.median(times) * 1e3,
        "job_ms_p90": statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3,
    }


def timed_run(harness, workload, seed: int, seconds: float, work: Path, refs: dict):
    warm = [workload.make(seed, i, "warmup") for i in workload.warmup]
    setup, setup_wall = setup_seconds(harness, warm, work)
    failures: list = []
    _failures([harness.run_job(j, workload, str(work / "warm")) for j in warm], "warm-up", failures)
    outcomes, timed_failures = closed_loop(harness, workload, seed, seconds, work, refs)
    failures += timed_failures
    rss = harness.peak_rss_mb()
    wall = [o.seconds for o in outcomes]
    scales = harness.speed_scales([o.kernel for o in outcomes])
    metrics = {"setup_s": setup, **_job_metrics([t * s for t, s in zip(wall, scales)]), "peak_rss_mb": rss}
    attempted = len(outcomes) + len(warm)
    raw = _job_metrics(wall)
    print(f"{workload.name} seed={seed}: {len(wall)} timed jobs, percentiles over {len(wall)} samples")
    print(
        f"wall clock: setup_s = {setup_wall:.6g} s, jobs_per_s = {raw['jobs_per_s']:.6g} 1/s, "
        f"job_ms_p50 = {raw['job_ms_p50']:.6g} ms, job_ms_p90 = {raw['job_ms_p90']:.6g} ms, "
        f"host speed scale median {statistics.median(scales):.3f}"
    )
    print(f"fail_ratio = {len(failures) / attempted:.6g} ({len(failures)} of {attempted} jobs)")
    return metrics, UNITS, attempted, failures


def _scaled_seconds(harness, outcomes):
    """Summed job time of one pass, scaled by the pass's median kernel time."""
    scale = harness.REF_KERNEL_S / statistics.median(o.kernel for o in outcomes)
    return sum(o.seconds for o in outcomes) * scale, scale


def traced_run(harness, spans, workload, seed: int, seconds: float, work: Path, refs: dict):
    jobs = [workload.make(seed, i) for i in range(workload.trace_jobs)]
    warm = [workload.make(seed, i, "warmup") for i in workload.warmup]
    failures: list = []
    _failures([harness.run_job(j, workload, str(work / "warm")) for j in warm], "warm-up", failures)
    tracer = spans.Tracer()
    first: dict = {}
    plain_s, traced_s, passes, first_spans = [], [], [], []
    attempted = len(warm)
    start = time.monotonic()
    while not passes or (time.monotonic() - start < seconds and len(passes) < MAX_PASSES):
        plain = [
            harness.run_job(
                job, workload, str(work / "job"),
                check=not first, reference=first.get(job.index, refs.get(str(job.index))),
            )
            for job in jobs
        ]
        first = first or {o.index: o.digest for o in plain}
        tracer.install()
        try:
            traced = []
            for job in jobs:
                tracer.job = job.index
                traced.append(
                    harness.run_job(job, workload, str(work / "job"), check=False, reference=first[job.index])
                )
        finally:
            tracer.uninstall()
        recorded = tracer.take()
        first_spans = first_spans or recorded
        _failures(plain, "untraced", failures)
        _failures(traced, "traced", failures)
        attempted += len(plain) + len(traced)
        plain_s.append(_scaled_seconds(harness, plain)[0])
        job_s, scale = _scaled_seconds(harness, traced)
        traced_s.append(job_s)
        layer = spans.layer_metrics(tracer.names, recorded)
        for name in layer:
            if name.endswith(("_s", "ns_per_candidate")):
                layer[name] *= scale
        passes.append(layer)

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tracer.write(str(out / f"spans-{workload.name}-seed{seed}.json"), first_spans)
    metrics = {}
    for name in passes[0]:
        if name in spans.COUNTS:
            metrics[name] = passes[0][name]
            if any(p[name] != passes[0][name] for p in passes):
                failures.append(f"counter {name} differs between passes")
        elif name == "construct.max_spectrum_distance":
            metrics[name] = passes[0][name]
        else:
            metrics[name] = statistics.median(p[name] for p in passes)
    self_sum = [p.pop("trace.self_sum_s") for p in passes]
    del metrics["trace.self_sum_s"]
    metrics["trace.job_s"] = statistics.median(traced_s)
    metrics["trace.self_share"] = statistics.median(s / t for s, t in zip(self_sum, traced_s))
    metrics["trace_overhead"] = statistics.median(traced_s) / statistics.median(plain_s)
    print(f"{workload.name} seed={seed}: {len(passes)} untraced and traced passes of {len(jobs)} jobs")
    return metrics, {name: per_layer_unit(name) for name in metrics}, attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("witness", "explore", "realize"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "findiag" / "__init__.py").is_file():
        print(f"error: no findiag package under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # run the cleanup below
    os.environ.update(BLAS_ENV)  # before numpy is imported
    sys.path.insert(0, str(SRC))
    import harness
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        refs = json.load(fh).get(args.workload, {}).get(str(args.seed), {})
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        with harness.alarm_handler():
            if args.trace:
                result = traced_run(harness, spans, workload, args.seed, args.seconds, work, refs)
            else:
                result = timed_run(harness, workload, args.seed, args.seconds, work, refs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()
    metrics, units, attempted, failures = result
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
