"""Timing that absorbs the machine's own speed drift.

On a shared 2-vCPU machine the same work runs up to 1.9 times slower for
stretches of seconds to minutes, and CPU time drifts with wall time.  So
every timed call is calibrated: a probe times a fixed pure-Python kernel
before the call, every SAMPLE_S seconds during it (from a SIGALRM handler,
between bytecodes of the call) and after it.  The calibrated duration is the
call's wall time, less the time spent probing, scaled by REFERENCE_S over
the mean probe.  No change to the program can touch the kernel, so a
program that gets faster still shows as faster.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# The kernel's time on the machine the bounds were set on (2 vCPUs, CPython
# 3.11.7) at its fast speed; calibrated times are seconds of that machine.
REFERENCE_S = 0.00063
SAMPLE_S = 0.25


class OpTimeout(BaseException):
    """Raised from the timer signal; the CLI's own `except Exception` cannot catch it."""


def reference_kernel() -> int:
    """A fixed slice of pure-Python work like the program's own: dict and
    tuple traffic, small-int and Fraction arithmetic."""
    acc = Fraction(0)
    table: dict = {}
    for i in range(300):
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0) + i * i
        acc += Fraction(i % 11, 1 + i % 4)
    return len(table) + acc.denominator


def probe() -> float:
    """Seconds the reference kernel takes now (best of three)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def calibrate(raw_s: float, speeds: list) -> float:
    return raw_s * REFERENCE_S * len(speeds) / sum(speeds)


def timed(fn, limit_s: float) -> tuple:
    """(fn(), raw seconds, calibrated seconds); OpTimeout after limit_s."""
    speeds = [probe()]
    probing = 0.0
    t0 = time.perf_counter()

    def on_alarm(signum, frame):
        nonlocal probing
        t = time.perf_counter()
        if t - t0 - probing > limit_s:
            raise OpTimeout()
        speeds.append(probe())
        probing += time.perf_counter() - t

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    raw = time.perf_counter() - t0 - probing
    speeds.append(probe())
    return result, raw, calibrate(raw, speeds)
