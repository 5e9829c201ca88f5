"""Fixed reference work, timed around every op to cancel machine drift.

The machines this benchmark runs on are shared: the same pure-Python
loop takes 1.0 ms in one minute and 1.7 ms in the next.  Each op is
therefore bracketed by two timings of a fixed piece of reference work
in the program's own mix (object allocation with dict and attribute
access, hashing of small reprs as plan signatures do, NumPy copies),
and its time is scaled by ``NOMINAL_S`` over the mean of the two.  Host
times are thus reported in seconds of a machine that runs the reference
in ``NOMINAL_S``: about its fast-phase time on the 2-vCPU 2.1 GHz Xeon
VM the benchmark was written on.  The reference never touches the
program, so no change to the program can move it.
"""

from __future__ import annotations

import gc
import hashlib
import time

import numpy as np

NOMINAL_S = 4.5e-3


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: tuple) -> None:
        self.a = a
        self.b = b


_SOURCE = np.arange(1 << 19, dtype=np.float32).reshape(512, 1024)


def _work() -> None:
    table: dict[int, list] = {}
    acc = 0
    for i in range(2000):
        pair = _Pair(i, (i, str(i)))
        table[i % 97] = [pair, pair.b]
        acc += len(table) + pair.a % 7
    for i in range(600):
        hashlib.sha256(repr((i, "S0S1", (4, 4), 0.5)).encode()).hexdigest()
    for _ in range(4):
        copy = _SOURCE.copy()
        copy[::2, ::2].copy()


def seconds() -> float:
    """Time one run of the reference work, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
