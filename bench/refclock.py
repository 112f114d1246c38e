"""Reference seconds: measured times rescaled to a fixed machine speed.

The machines this benchmark runs on are shared, and they run the same
deterministic code up to 1.7 times slower for minutes at a time.  A
fixed calibration loop, timed next to each measurement, tracks that
speed.  A measured time t is reported as t * REF_SECONDS / c, where c is
the calibration loop's time at that moment: the time the measurement
would take on a machine where the loop takes REF_SECONDS, about its time
on an idle machine of the kind used here.  The loop runs before and
after each measured call, and c is the mean of the two.

The loop mixes what the library's hot paths do: interpreted complex
arithmetic on scalars read out of small arrays, small and medium dense
determinants, and whole-array updates of a 4096-entry vector with fresh
allocations, so that it slows down with the cache and memory pressure
of other load as the workloads do.
"""

import time

import numpy as np

REF_SECONDS = 0.003

_rng = np.random.default_rng(0)
_VECTOR = _rng.standard_normal(4096) + 0j
_SMALL = _rng.standard_normal((6, 6))
_MEDIUM = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))


def _loop():
    acc = 0j
    a = _VECTOR[:64]
    for i in range(1500):
        b = a[i % 60 : i % 60 + 4]
        acc += complex(b[0]) * complex(b[1]) - complex(b[2])
    for _ in range(60):
        acc += np.linalg.det(_SMALL)
    for _ in range(3):
        acc += np.linalg.det(_MEDIUM)
    g = _VECTOR
    for _ in range(40):
        sums = np.concatenate([[0j], np.cumsum(g)])
        g = g + 1e-6 * (sums[1:] - sums[:-1])
    return acc


def calibration_seconds() -> float:
    """Seconds the calibration loop takes now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def scale() -> float:
    """Factor from measured seconds to reference seconds, measured now."""
    return REF_SECONDS / calibration_seconds()
