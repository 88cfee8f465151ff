"""How fast this machine runs Python right now.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes, in the same proportion for the program and for
any other Python code.  A fixed piece of interpreter work is timed
every quarter second during the measured phase and before every
set-up, and the end-to-end figures are reported at a fixed reference
speed: each time is divided, and each rate multiplied, by
``sample / REFERENCE_S`` for its window.  The work is the benchmark's
own code and allocates nothing the garbage collector tracks, and a
sample times its second of two back-to-back runs with the collector
off, so neither the program's heap nor the caches it leaves behind can
move it: no change to the program moves the reference.
"""

from __future__ import annotations

import gc
import statistics
import time

#: What one sample takes at the reference speed (a typical reading on
#: the machine the benchmark was written on).  Fixed for good, so that
#: figures of different runs and commits compare.
REFERENCE_S = 0.001

#: Seconds between two samples during the measured phase.
PERIOD_S = 0.25

_TABLE = list(range(256))


def _work() -> int:
    total = 0
    table = _TABLE
    for index in range(6000):
        total = (total + table[index & 255] * index) % 1000003
    return total


def sample() -> float:
    """Seconds the fixed work takes now (warm, collector off)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        started = time.perf_counter()
        _work()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def slowdown(samples: "list[float]") -> float:
    """How much slower than the reference the machine ran: the median
    sample over ``REFERENCE_S``."""
    return statistics.median(samples) / REFERENCE_S
