"""Machine-speed reference for the timings of a run.

On a small shared machine the speed of pure-Python code changes by a third
from one ten-second stretch to the next (other tenants, shared cores), and
CPU time tracks wall time, so repeating work inside one run does not average
it out. The benchmark therefore times a fixed kernel of its own code next to
every verdict and set-up, and reports times rescaled to the speed at which
the kernel takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / kernel time around the measurement

The kernel is benchmark code, so a change to repident cannot move it; it
does the kind of interpreter work repident's hot paths do (integer tuples
built by generator expressions, gcd calls, small slotted objects). The raw
wall-clock figures are printed beside the rescaled ones and kept in the
run's record.
"""

from __future__ import annotations

import time
from math import gcd

# The kernel's time on the reference machine state: about what it takes on
# an otherwise idle core of the 2-core machine the benchmark was sized on.
REFERENCE_S = 0.003
_ITERATIONS = 1500


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _kernel():
    acc = _Pair((1, 2, 3, 4, 5, 6), 1)
    for i in range(_ITERATIONS):
        v = tuple(x * 3 + i for x in acc.a)
        g = 0
        for c in v:
            g = gcd(g, c)
        acc = _Pair(tuple(x % 1_000_003 for x in v), g)
    return acc


def kernel_s(repeats: int = 1) -> float:
    """Mean time of one kernel pass over `repeats` passes."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        _kernel()
    return (time.perf_counter() - t0) / repeats


def rescale(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """A measured time at the reference speed."""
    return seconds * REFERENCE_S * 2 / (kernel_before + kernel_after)
