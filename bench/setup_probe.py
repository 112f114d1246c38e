"""Set-up time of one workload in a fresh process.

    python3 bench/setup_probe.py <workload> <seed>

Prints the seconds from before importing the library (and numpy with
it) to the end of building the workload's inputs, then the same time in
reference seconds (see refclock.py).  ``run.py`` starts several of these
and reports the median of the second figure as ``setup_s``.
"""

import time

_start = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), "unused")
seconds = time.perf_counter() - _start

import statistics  # noqa: E402

import refclock  # noqa: E402

factor = statistics.median(refclock.scale() for _ in range(3))
print(seconds, seconds * factor)
