"""How fast the shared host runs right now, from a reference loop.

Load from neighbours on the host slows every call by up to ~50% for tens of
seconds at a time, so the fastest repeat within one run still moved by 30%
between runs.  A reference loop that runs no gaudin code measures the
slowdown a call met, and the benchmark divides it out.  Inside the workload
process a timer signal runs the loop every ~100 loop-times during the call
(about 1% of it), so the samples cover the whole call; the loop's own time is
taken off the call's.  Around a subprocess, a block of the loop runs before
and after it.  The loop, complex arithmetic on numpy scalars in Python, has
the shape of the solver's inner loops and a working set small enough not to
disturb the call it samples.  A change to gaudin cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

BLOCK_S = 0.3


def _pair(u, v):
    d = u - v
    return (1.0 + u * v) / d


_LEVELS = np.linspace(0.6, 1.4, 24)
_ROOTS = np.linspace(0.5, 1.5, 12) + 0.01j


def python_unit():
    acc = 0j
    for w in _ROOTS:
        for e in _LEVELS:
            acc += _pair(e, w)
    return acc


UNIT_S = 2.0e-4  # python_unit's time on a quiet host
SAMPLE_EVERY = 100  # unit times between two samples in a call


def slowdown():
    """The host's slowdown relative to a quiet one (1.0 = quiet), from a
    block of the reference loop run now."""
    times = []
    end = time.perf_counter() + BLOCK_S
    while time.perf_counter() < end:
        t0 = time.perf_counter()
        python_unit()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / UNIT_S


def timed(fn, *args):
    """Run fn(*args) sampling the host during it.  Returns (result, seconds
    fn ran, mean slowdown over that time)."""
    samples = []

    def sample(signum, frame):
        t0 = time.perf_counter()
        python_unit()
        samples.append(time.perf_counter() - t0)

    interval = SAMPLE_EVERY * UNIT_S
    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, interval, interval)
    try:
        t0 = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, previous)
    seconds -= sum(samples)
    if not samples:
        return result, seconds, slowdown()
    # fn progresses at a rate 1/slowdown, so the time it would take on a
    # quiet host is seconds * mean(1/slowdown) over equally spaced samples
    return result, seconds, 1.0 / statistics.fmean(UNIT_S / t for t in samples)
