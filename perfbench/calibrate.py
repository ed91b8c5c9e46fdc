"""Host-speed calibration for ``setup_s``.

The set-up is dominated by ``load_coo``, a pure-Python parse of the COO
text file. On a shared host, interpreter-bound code runs up to 1.7x slower
for periods of seconds to many minutes while other tenants load the
machine (CPU time slows as much as wall time, so this is contention, not
steal time), and NumPy-bound code only about 1.15x. That host-speed drift
would swamp any change to the set-up itself.

So each set-up repetition is bracketed by a fixed reference task written in
the same style as the set-up (split lines, parse ints, range-check, build a
dict of tuple keys, convert to arrays), and its wall time is scaled by
``REFERENCE_S`` over the reference task's mean time around it: the result is
the set-up time at the host speed under which the reference task takes
``REFERENCE_S``. The reference task is frozen here, independent of
``allocore``, so a change to the library moves the scaled time and not the
yardstick.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["REFERENCE_S", "reference_task", "time_reference", "scaled"]

# Median time of ``reference_task``, rounded, on a 2-vCPU x86-64 VM with
# Python 3.11 and NumPy 2.4, over a minute of repetitions spanning fast and
# slow host periods (0.07 s fast, 0.13 s slow). Fixing it makes ``setup_s``
# read as seconds on that host at its median speed.
REFERENCE_S = 0.100

_SHAPE = (300, 300, 60)
# 20,000 distinct cells spread over the tensor, counts of one to four
# digits: a working set the size of a small COO file, not one that fits in
# a core's cache.
_LINES = 20000
_CELLS = [(i * 7919) % (300 * 300 * 60) for i in range(_LINES)]
_TEXT = "".join(
    f"{1 + j % 300} {1 + j // 300 % 300} {1 + j // 90000} {1 + j % 1997}\n"
    for j in _CELLS)


def reference_task() -> tuple[np.ndarray, np.ndarray]:
    """Parse a fixed 20,000-line COO text the way a COO reader does and
    aggregate it into coordinate and count arrays."""
    entries = []
    for raw in _TEXT.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        vals = [int(t) for t in line.split()]
        coords, count = vals[:3], vals[3]
        if any(not 1 <= c <= _SHAPE[m] for m, c in enumerate(coords)):
            raise ValueError("coordinate out of range")
        entries.append((tuple(c - 1 for c in coords), count))
    agg: dict[tuple[int, ...], int] = {}
    for idx, c in entries:
        key = tuple(int(i) for i in idx)
        agg[key] = agg.get(key, 0) + int(c)
    coords = np.array(list(agg), dtype=np.int64)
    counts = np.array(list(agg.values()), dtype=np.int64)
    return coords, counts


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_task()
    return time.perf_counter() - t0


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` at the reference host speed, given the reference task's
    times just before and just after it."""
    return wall_s * REFERENCE_S / ((before_s + after_s) / 2.0)
