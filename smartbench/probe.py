"""The host-speed probe shared by ``run.py`` and ``worker.py``.

On a 2-vCPU Intel Xeon VM (Linux, CPython 3.11), the host's speed swings
between 0.7x and 1.6x of its median, within a second and over minutes,
and every time the benchmark takes moves with it.  A fixed loop timed
next to each measured stretch tells how fast the host was just then.
"""

from __future__ import annotations

import heapq
from time import perf_counter

#: The probe's time on the reference host (s).  A time normalised by
#: ``REF_PROBE_S / probe`` is the time it would have taken on a host
#: where the probe reads REF_PROBE_S.
REF_PROBE_S = 0.120


def host_probe() -> float:
    """Wall time of a fixed pure-Python loop (s).  It does what the
    event engine does most (tuple allocation, heap pushes and pops,
    dict inserts) on a working set of a few MB.  A process's first call
    also grows its heap, so callers discard it."""
    start = perf_counter()
    heap: list = []
    table: dict = {}
    for i in range(90_000):
        key = i * 7919 % 100_003
        heapq.heappush(heap, (key, i))
        table[key] = i
    while heap:
        heapq.heappop(heap)
    return perf_counter() - start
