"""Record what the benchmark compares against, at the current commit.

    python3 perfbench/record.py refs
        reference.json: the digest of every job's output for the first
        REF_JOBS jobs of each DEFAULT_SEEDS seed, each job passing its checks.

    python3 perfbench/record.py baseline
        baseline.json: one untraced run per seed in BASELINE_SEEDS and one
        traced run of seed 0 for every workload, through run.py with the
        settings of BENCHMARK.json; median, quartiles and spread of each
        end-to-end metric, the per-layer metrics, and the environment.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

DEFAULT_SEEDS = (0, 1)
REF_JOBS = {"witness": 1200, "explore": 450, "realize": 700}
BASELINE_SEEDS = range(1, 11)


def record_refs() -> None:
    os.environ.update(run.BLAS_ENV)
    sys.path.insert(0, str(run.SRC))
    import harness
    from workloads import WORKLOADS

    work = run.ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    data: dict = {}
    try:
        with harness.alarm_handler():
            for name, workload in WORKLOADS.items():
                for seed in DEFAULT_SEEDS:
                    digests = {}
                    for i in range(REF_JOBS[name]):
                        outcome = harness.run_job(workload.make(seed, i), workload, str(work))
                        if outcome.failed:
                            sys.exit(f"{name} seed {seed} job {i} fails: {outcome.errors}")
                        digests[str(i)] = outcome.digest
                    data.setdefault(name, {})[str(seed)] = digests
                    print(f"{name} seed {seed}: {len(digests)} jobs", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH / "reference.json").write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(run.ROOT), capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def record_baseline() -> None:
    import numpy

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out = {
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": int(run.BLAS_ENV["OPENBLAS_NUM_THREADS"]),
            "cpu": _cpu_model(),
            "run_seconds": seconds,
        },
        "workloads": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        runs = [_run(name, seed, seconds, 0) for seed in BASELINE_SEEDS]
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[m["name"]] = {
                "values": values,
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / statistics.median(values),
                "unit": m["unit"],
            }
        traced = _run(name, 0, seconds, 1)
        out["workloads"][name] = {
            "seeds": list(BASELINE_SEEDS),
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "jobs": [r["attempted"] for r in runs],
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "end_to_end": summary,
            "per_layer_seed0": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(name, json.dumps(summary), flush=True)
    (BENCH / "baseline.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    {"refs": record_refs, "baseline": record_baseline}[sys.argv[1]]()
