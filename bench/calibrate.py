"""Machine-speed probe taken next to the measured work.

On a shared machine the speed of one core drifts with other tenants' load:
over 40 s the 10th-percentile time of one audit moved between 7.2 and
12.6 ms in 2-second bins, while its ratio to this kernel stayed within
about 10%.  So every timed interval is scaled by REF_KERNEL_S over the
kernel time measured right before and after it, which reports seconds at a
fixed reference speed.  The kernel uses only the standard library, so no
change to the program can move it.  bench/child.py places the probes.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The kernel's time on an uncontended 2-core x86 VM under CPython 3.11, so
# that scaled seconds read close to wall seconds on a quiet machine.
REF_KERNEL_S = 1.5e-3
CALLS = 5


def kernel(n: int = 3000):
    """Interpreter-bound mix like the program's: tuples, dicts, ints, Fractions."""
    table: dict = {}
    acc = 0
    total = Fraction(0)
    for i in range(n):
        key = (i, i * 7 % 13, i & 15)
        table[key] = table.get(key[1:], 0) + i
        acc ^= hash(key) & 0xFFFF
        if i % 64 == 0:
            total += Fraction(i, 7)
    return acc, total


def probe(calls: int = CALLS) -> float:
    """Fastest of a few kernel runs, in seconds; bursts only ever add time."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(calls):
        t0 = clock()
        kernel()
        best = min(best, clock() - t0)
    return best


def scaled(seconds: float, *kernel_s: float) -> float:
    """Seconds at the reference speed, given the kernel times around the interval."""
    return seconds * REF_KERNEL_S * len(kernel_s) / sum(kernel_s)
