"""Calibrated seconds: wall time corrected for how fast the CPU ran meanwhile.

On a shared host the speed of one core can change by more than 1.5x within
seconds and stay changed for minutes, which moves raw medians of identical
runs far more than any bound worth keeping.  While a timed call runs, a
timer signal interrupts it every ``INTERVAL`` seconds and times a fixed
reference kernel (small numpy operations of the same shapes the fitter
uses).  A call's calibrated time is its wall time, less the probes, scaled
by how much slower than ``NOMINAL`` the probes ran on average:

    calibrated = (wall - probes) * mean(NOMINAL / probe) ** ELASTICITY

ELASTICITY is how strongly the fitter's time follows the probe's: over 60
runs of all three workloads, taken in both fast and slow periods, the
slope of log wall time against log probe speed was -1.07 to -1.25.

The kernel is part of the benchmark, not of eitats, so a change to the
program moves calibrated and raw times alike.
"""
from __future__ import annotations

import signal
import statistics
import time
from typing import Any, Callable, TypeVar

import numpy as np

T = TypeVar("T")

INTERVAL = 0.05
NOMINAL = 0.0004  # seconds one probe takes on the 2-core reference sandbox when unloaded
ELASTICITY = 1.2

_rng = np.random.default_rng(0)
_A = _rng.uniform(0.5, 2.0, size=(16, 201))
_B = _rng.uniform(0.5, 2.0, size=(16, 4, 4)) + 4.0 * np.eye(4)
_G = _rng.uniform(size=(16, 4, 1))


def probe() -> float:
    """Seconds taken by one pass of the reference kernel."""
    start = time.perf_counter()
    for _ in range(8):
        y = 1.0 / (_A * _A + 1.5) - 0.5 / (_A * _A + 0.2)
        np.einsum("sn,sn->s", y, y)
        np.linalg.solve(_B, _G)
    return time.perf_counter() - start


def speed(samples: list[float]) -> float:
    """Factor from wall to calibrated seconds: 1.0 at nominal speed, below 1 when slower."""
    return statistics.fmean(NOMINAL / s for s in samples) ** ELASTICITY


def current_speed(n: int = 25) -> float:
    """Speed from ``n`` back-to-back probes, after a short warm-up."""
    for _ in range(5):
        probe()
    return speed([probe() for _ in range(n)])


class Clock:
    """Runs a call while sampling the reference kernel on a timer signal."""

    def __init__(self) -> None:
        self._samples: list[float] = []

    def _tick(self, signum: int, frame: object) -> None:
        self._samples.append(probe())

    def call(self, fn: Callable[..., T], *args: Any) -> tuple[T, float, float]:
        """``(fn(*args), wall seconds, calibrated seconds)``, probes excluded from both."""
        self._samples = [probe()]
        previous = signal.signal(signal.SIGALRM, self._tick)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        wall -= sum(self._samples[1:])
        return result, wall, wall * speed(self._samples)
