"""Op timing in reference seconds.

This host class's CPU speed drifts by up to +-25% within seconds (2-core
x86-64 VM), more than the benchmark's bounds allow.  A fixed calibration
kernel is therefore timed before each op, every ``SAMPLE_EVERY_S``
during it (from a SIGALRM handler on the calling thread, so no thread
is started; the handler's time is taken out of the op's latency), and
after it.  An op's time in reference seconds is its latency scaled by
``REFERENCE_S`` over the median kernel time of its samples, taken
together with its nearest neighbours' until there are ``MIN_SAMPLES``.
The kernel is the benchmark's own code: a faster program never makes it
faster.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 1e-3  # the kernel's median time on the host class above
SAMPLE_EVERY_S = 0.05
MIN_SAMPLES = 8

_MATRIX = np.full((4, 4), 0.1 + 0.05j) + 0.5 * np.eye(4)


def kernel_seconds():
    """Time one pass of a fixed mix of interpreter work and small matrix products."""
    t0 = time.perf_counter()
    acc, memo = 0j, {}
    for i in range(150):
        prod = _MATRIX @ _MATRIX
        acc += prod[i % 4, (3 * i) % 4]
        key = (i % 11, i % 13)
        memo[key] = memo.get(key, 0.0) + 1.5 * i
        for j in range(12):
            acc += 0.5 * j
    return time.perf_counter() - t0


class Timed:
    """One op's latency (seconds) and kernel samples."""

    __slots__ = ("latency", "samples", "scaled")

    def __init__(self, latency, samples):
        self.latency, self.samples, self.scaled = latency, samples, None


def time_op(fn):
    """Run fn(); return (Timed, result, exception or None)."""
    samples = [kernel_seconds()]
    paused = 0.0
    active = True

    def sample(signum, frame):
        nonlocal paused
        if active:
            dt = kernel_seconds()
            samples.append(dt)
            paused += dt

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    result = error = None
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # the caller records a raising op as failed
        error = exc
    finally:
        t1 = time.perf_counter()
        active = False
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    samples.append(kernel_seconds())
    return Timed(t1 - t0 - paused, samples), result, error


def scale(timings):
    """Fill in ``scaled`` (reference seconds) for a run of consecutive ops."""
    for i, t in enumerate(timings):
        near, width = t.samples, 0
        while len(near) < MIN_SAMPLES and width < len(timings):
            width += 1
            near = [s for n in timings[max(i - width, 0) : i + width + 1] for s in n.samples]
        t.scaled = t.latency * REFERENCE_S / statistics.median(near)
