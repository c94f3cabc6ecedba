"""A fixed CPU kernel that reads how fast the shared machine runs right now.

Other tenants of a shared machine slow this process even in CPU time, by up
to 1.7 times, in stretches of a few seconds.  The gauge kernel slows with
them, so the benchmark times it between operations and scales each
operation's CPU seconds by REFERENCE_S over the gauge's readings around it:
times are given as CPU seconds on a machine on which the kernel takes
REFERENCE_S.  The kernel does not call evsikit, so a change to the program
does not move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.04    # about the kernel's median CPU time on a 2-core Xeon at 2.0 GHz, one BLAS thread
EVERY_S = 0.5         # CPU seconds of operations between two readings, at least

_rng = np.random.default_rng(0)
_VECTOR = _rng.standard_normal(100_000)
_BUFFER = np.empty_like(_VECTOR)
_MATRIX = _rng.standard_normal((20_000, 12))


def _kernel() -> float:
    # The program's three kinds of work: numpy calls on tiny arrays from a
    # Python loop (as in a Metropolis step), plain Python, and whole-array
    # numpy.  Large arrays are made once and worked on in place, so that the
    # reading does not depend on what the memory allocator was left holding
    # by the operation before it.
    x = np.zeros(2)
    total = 0.0
    for _ in range(2000):
        total += float(np.sum(x + 0.1 * np.exp(x) > 0.5))
    n = 0
    for i in range(150_000):
        n += i * i % 7
    for _ in range(4):
        np.multiply(_VECTOR, 0.5, out=_BUFFER)
        np.exp(_BUFFER, out=_BUFFER)
        total += float(_BUFFER.sum())
    total += float((_MATRIX.T @ _MATRIX)[0, 0])
    return total + n


def read() -> float:
    """CPU seconds of one run of the kernel."""
    start = time.process_time()
    _kernel()
    return time.process_time() - start


def scale_now() -> float:
    """REFERENCE_S over the median of three readings taken now, after one to warm up."""
    _kernel()
    return REFERENCE_S / statistics.median(read() for _ in range(3))


class ScaledTimes:
    """Reads the gauge between a Runner's operations and scales its CPU seconds.

    Called before each operation, it reads the gauge when at least EVERY_S
    CPU seconds of operations have passed since the last reading.  The
    operations between two readings are scaled by REFERENCE_S over the mean
    of the two.
    """

    def __init__(self, runner):
        self.runner = runner
        self.marks: list[tuple[float, int, float, float]] = []

    def _state(self):
        r = self.runner
        return r.completed, r.estimate_s, r.oracle_s

    def __call__(self):
        if self.marks:
            _, _, estimate_s, oracle_s = self.marks[-1]
            if self.runner.estimate_s + self.runner.oracle_s - estimate_s - oracle_s < EVERY_S:
                return
        else:
            _kernel()  # warm up
        self.marks.append((read(), *self._state()))

    def close(self):
        self.marks.append((read(), *self._state()))

    def totals(self) -> tuple[int, float, float]:
        """Completed estimates, and scaled CPU seconds in estimates and in oracle calls."""
        completed, estimate_s, oracle_s = 0, 0.0, 0.0
        for (g0, c0, e0, o0), (g1, c1, e1, o1) in zip(self.marks, self.marks[1:]):
            factor = REFERENCE_S / ((g0 + g1) / 2)
            completed += c1 - c0
            estimate_s += (e1 - e0) * factor
            oracle_s += (o1 - o0) * factor
        return completed, estimate_s, oracle_s
