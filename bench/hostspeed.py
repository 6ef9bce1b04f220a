"""A fixed reference kernel that measures how fast the host runs Python now.

The benchmark's host shares its cores with other tenants.  Over a run
of 20 to 40 s the same Python code can run at any speed between its
fastest and about twice as slow, and the fastest speed it reaches is
itself 20 % apart from one run to the next.  No statistic of the raw
times within a run removes that.  So the benchmark times this kernel
right before and right after every item and every set-up, and scales
each of their times by ``REFERENCE_S`` over the kernel's time next to
it (`scale`).  An item that slows down with the host keeps its scaled
time; an item whose own code got slower or faster moves it.

The kernel belongs to the benchmark and never calls gallai, so no change
to the package moves it.  It mixes the kinds of work gallai does most:
an interpreter loop over small integers, dictionary updates, and ``int``
bitset intersections.  Each kind slows down by its own factor when the
host is busy, so the kernel tracks the workloads only roughly: scaled
by it, the `random` times still rise with the host's slowdown at about
a third of its rate.  Kernels that added allocation, a JSON round trip
or reads scattered over a table larger than a core's L2 cache tracked
`random` better but `tower` much worse, in runs interleaved with this one.
"""

from __future__ import annotations

import random
from time import perf_counter

# The kernel's time on a 2-vCPU shared x86-64 host (Intel Xeon, 2 MiB
# L2 per core) at its fastest, so a scaled time reads close to the wall
# time there.  It fixes the unit; it is not measured at run time.
REFERENCE_S = 0.0019

_N = 300
_rng = random.Random(20191)
_ROWS = [_rng.getrandbits(_N) for _ in range(_N)]
_KEYS = [_rng.getrandbits(40) for _ in range(6000)]


def _kernel() -> int:
    total = 0
    for i in range(15000):
        total += i * i % 7
    counts: dict[int, int] = {}
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + 1
    for u in range(0, _N, 3):
        row = _ROWS[u]
        for v in range(u + 1, _N, 7):
            total += (row & _ROWS[v]).bit_count()
    return total + len(counts)


def reference() -> float:
    """Seconds one run of the kernel takes now."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two kernel times, at the reference speed."""
    return seconds * REFERENCE_S * 2 / (before + after)
