"""Host-speed reference for the benchmark's timings.

The 2-vCPU host this benchmark was tuned on runs the same code at speeds up
to about 65% apart, and stays at one speed for seconds to minutes (README.md,
"Host speed"). So the timed figures are scaled to a reference speed:

    at_ref = mean measured time * REF_KERNEL_S / mean time of a fixed kernel

with the kernel timed just before and after each measured stretch. The
result reads as seconds on that host at its fast speed. The kernel does the
kinds of work fogsim's hot paths do (a heap of tuples, dict lookups, JSON
encoding of small dicts), so the host slows it about as much as it slows
fogsim. It belongs to the benchmark and never calls fogsim, so no change to
the program can move it.
"""
from __future__ import annotations

import heapq
import json
import statistics
import time

REF_KERNEL_S = 0.012  # the kernel's time on the tuning host at its fast speed
KERNEL_REPEATS = 5


def _kernel(n: int = 3000) -> int:
    heap, table, out = [], {}, 0
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1000, i, str(i)))
        table[(i % 97, i % 13)] = i
    while heap:
        t, i, s = heapq.heappop(heap)
        out += len(json.dumps({"t": t, "s": s, "k": [i, table[(i % 97, i % 13)]]}))
    return out


def kernel_s() -> float:
    """Mean time of the reference kernel, now."""

    times = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.fmean(times)


def at_ref(times: list, kernel_times: list) -> float:
    """Mean of ``times``, scaled by ``REF_KERNEL_S`` over the mean kernel time
    taken through the same stretch."""

    return statistics.fmean(times) * REF_KERNEL_S / statistics.fmean(kernel_times)


def bracketed(fn):
    """(fn's result, kernel time just before it, kernel time just after it)."""

    before = kernel_s()
    result = fn()
    return result, before, kernel_s()
