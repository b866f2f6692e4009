"""Set-up probe: one fresh interpreter imports findiag (numpy included), runs
the warm-up jobs of a plan written by run.py, and prints `time.monotonic()`.
run.py subtracts the monotonic time at which it started this process, which
gives the set-up time of one fresh process with input generation left out.

Usage: python3 perfbench/probe.py <src dir> <plan.json>
"""

import json
import sys
import time


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    import harness  # imports findiag

    with open(sys.argv[2], encoding="utf-8") as fh:
        plan = json.load(fh)
    for calls in plan:
        for argv in calls:
            if harness.call_cli(argv)[0] != 0:
                break
    print(time.monotonic())


if __name__ == "__main__":
    main()
