"""Time one cold set-up of a workload in a fresh interpreter.

    python3 -B perfbench/setup_once.py <workload> <seed> <workdir>

Prints the seconds from just before the program is imported to the end
of the workload's setup (library load, input netlists, and for the
service the daemon and its workers), then releases what setup started.
"""

from __future__ import annotations

import os
import sys
import time


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import repro  # noqa: F401 - the import is part of set-up

    state = workload.setup(seed, workdir)
    seconds = time.perf_counter() - t0
    workload.close(state)
    print(seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
