"""Host-speed calibration for timings taken on a shared, noisy machine.

Shared hosts slow a guest down in phases that last minutes (contention on
sibling hardware threads, caches and memory), by as much as 1.5-2x and
invisibly to the guest's own CPU accounting.  A run therefore times a fixed
piece of work -- pure-Python dict/tuple/sort work plus small numpy kernels,
the same mix the library spends its time on -- between its operations, and
reports every timing both as measured and scaled to a reference host speed:

    scaled = measured * REFERENCE_S / median(calibration samples of the run)

The calibration work lives in the benchmark, so a change to the library
cannot move it; a library speed-up shows in the scaled timings in full.
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import List

import numpy as np

#: Calibration time at the reference host speed (the fast phase of a
#: 2-core x86_64 host at 2.1 GHz, Python 3.11).
REFERENCE_S = 0.1


def calibration_work() -> str:
    """The fixed work whose duration tracks host speed."""
    rng = random.Random(0)
    values = [rng.random() for _ in range(40000)]
    table = {}
    for index, value in enumerate(values):
        table[(index % 503, round(value, 3))] = value * 1.5
    ordered = sorted(table.items())
    array = np.array(values)
    total = 0.0
    for start in range(3000):
        window = array[start:start + 64]
        total += float(np.sqrt(window * window + 1.0).sum())
    return hashlib.sha256(repr((ordered[:3000], total)).encode("utf-8")).hexdigest()


def measure(samples: List[float]) -> None:
    """Time one calibration and append it to ``samples``."""
    started = time.perf_counter()
    calibration_work()
    samples.append(time.perf_counter() - started)

