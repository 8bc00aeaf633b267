"""A fixed reference loop that tracks how fast the machine runs right now.

On a shared host the same Python code runs up to a third slower for
seconds or minutes at a time, while other tenants are busy.  The benchmark
times this loop (which uses nothing of the library) between requests and
scales each request's time by ``NOMINAL_S / median`` of the loop times
taken within ``WINDOW_S`` of it.  Timings are so reported in seconds at the
speed where one loop takes ``NOMINAL_S``: a change to the library moves
them, a busy neighbour much less.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

ITERATIONS = 12000
NOMINAL_S = 0.001  # one loop's time that defines the reported scale
WINDOW_S = 1.0  # loops this close to a request measure its speed


def chunk() -> tuple[float, float]:
    """(start, seconds) of one pass of the reference loop, on perf_counter."""
    start = perf_counter()
    total = 0
    for i in range(ITERATIONS):
        total += i * i % 7
    return start, perf_counter() - start


def scaled(intervals: list[tuple[float, float]],
           reference: list[tuple[float, float]]) -> list[float]:
    """Each (start, end) interval's length at the nominal speed.

    ``reference`` holds (start, seconds) loop readings in time order.  A
    request's speed is the median loop time within WINDOW_S of it.
    """
    times = [t for t, _ in reference]
    out = []
    for start, end in intervals:
        near = reference[bisect_left(times, start - WINDOW_S):
                         bisect_right(times, end + WINDOW_S)] or reference
        out.append((end - start) * NOMINAL_S / statistics.median(s for _, s in near))
    return out
