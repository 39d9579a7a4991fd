"""Host-speed probe: fixed kernels timed while a workload runs.

On a shared host the speed of one core drifts by up to 1.8x over minutes
and by 10-20% from one second to the next, so raw pass times of the same
code spread far wider than any useful regression bound. The probe measures
that speed at the same moments the workload runs: a SIGALRM every 10 ms
runs one of four tiny kernels (a pure-Python loop, numpy on 1k and 8k
element arrays, and 3-vector updates like an SGD step) in the main
thread, between two bytecodes of the workload. A pass's time is then
reported at a reference speed:

    normalized = (wall - probe time) * REFERENCE_S / sum of the kernels' mean times

The kernels are benchmark code and never change with the program, so a
change to grlstab moves the normalized time exactly as it moves wall time
at a fixed host speed.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.01
# About the sum of the four kernels' mean times on a 2-core 2.1 GHz Xeon VM;
# it only sets the scale of the reported seconds.
REFERENCE_S = 0.001

_X1K = np.linspace(-1.0, 1.0, 1024)
_X8K = np.linspace(-1.0, 1.0, 8192)
_V = np.full(3, 0.1)


def _python_loop():
    s = 0
    for i in range(3000):
        s += (i * 7) % 13
    return s


def _numpy_1k():
    x = _X1K
    for _ in range(20):
        x = np.where(np.abs(x) < 0.5, x * 1.01, -x * 0.99)
    return x


def _numpy_8k():
    x = _X8K
    for _ in range(6):
        x = np.where(np.exp(-x * x) < 0.5, x * 1.01, -x * 0.99)
    return x


def _small_vectors():
    w = np.zeros(3)
    for _ in range(100):
        w = w - 0.1 * _V * (float(_V @ w) - 0.5)
    return w


KERNELS = (_python_loop, _numpy_1k, _numpy_8k, _small_vectors)


class SpeedProbe:
    """Collects kernel timings, from a timer signal or from explicit calls."""

    def __init__(self):
        self.samples = [[] for _ in KERNELS]
        self.total_s = 0.0  # time spent in kernels since the last reset
        self._next = 0

    def sample(self):
        k = self._next
        self._next = (k + 1) % len(KERNELS)
        start = perf_counter()
        KERNELS[k]()
        elapsed = perf_counter() - start
        self.samples[k].append(elapsed)
        self.total_s += elapsed

    def sample_all(self):
        """Two timings of every kernel, for use outside a timed region."""
        for _ in range(2 * len(KERNELS)):
            self.sample()

    def _on_alarm(self, signum, frame):
        self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def scale(self) -> float:
        """REFERENCE_S over the current speed; samples every kernel if one is missing."""
        while not all(self.samples):
            self.sample()
        return REFERENCE_S / sum(statistics.mean(s) for s in self.samples)

    def reset(self):
        self.samples = [[] for _ in KERNELS]
        self.total_s = 0.0
