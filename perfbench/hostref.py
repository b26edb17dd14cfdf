"""The host-speed kernel that the benchmark's times are scaled by.

The 2-vCPU host this benchmark was written on runs the same code up to 2x
slower from one second to the next, and over stretches of ten seconds and
more, with CPU time equal to wall time.  A fixed kernel that calls no
extlab code, timed right next to the program, slows down with it, so the
ratio of the program's time to the kernel's holds still where the raw
times do not.  The benchmark reports times as ``ratio * REF_S``: the time
on a host where the kernel takes ``REF_S`` (about its time on the host
above when it runs fast).  A change to the program moves its time, never
the kernel's.
"""

from __future__ import annotations

import gc
import time

import numpy as np

REF_S = 2.0e-3
_ROW = np.arange(1024, dtype=np.uint64)


def host_ref() -> float:
    """Seconds for the kernel: a Python int and dict loop, then numpy
    calls on a 1024-lane array.  The collector is held off, so it cannot
    bill the program's garbage to the kernel."""
    was_on = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc, d = 0, {}
    for i in range(6000):
        acc = (acc * 31 + i) & 0xFFFFFFFFFFFF
        d[i & 255] = acc
    x = _ROW
    for _ in range(300):
        x = (x * np.uint64(2654435761)) ^ (x >> np.uint64(7))
    dt = time.perf_counter() - t0
    if was_on:
        gc.enable()
    return dt
