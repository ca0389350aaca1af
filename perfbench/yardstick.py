"""A fixed piece of work, timed between the benchmark's operations, that takes the host's drift out of times.

On a shared host the speed of a core drifts by up to 40 % between runs a
minute apart, and whole runs are fast or slow together, so raw medians of two
runs of the same code can differ by a quarter. The yardstick is benchmark code
that never changes: a log-sum-exp sweep over a 100 x 3072 array (the size of
solve case (a)'s unlabeled block) and an interpreter loop (bytecode work like
start-up's). It is timed before and after every timed operation, and the
operation's time is rescaled to the speed the host had when the yardstick took
NOMINAL_S:

    reported = measured * NOMINAL_S / mean(yardstick before, yardstick after)

A change to owssl moves `measured` and leaves the yardstick alone, so it moves
the reported time by the same share.
"""

from __future__ import annotations

import time

import numpy as np

# about the yardstick's median time on the reference machine; any constant serves, as
# long as both sides of a comparison use the same
NOMINAL_S = 0.025
_SWEEPS = 10
_LOOP = 150_000


def _work(x: np.ndarray, tmp: np.ndarray, col: np.ndarray) -> int:
    # into preallocated buffers: the yardstick's speed must not depend on the heap owssl leaves
    for _ in range(_SWEEPS):
        np.subtract(x, 1.0, out=tmp)
        np.exp(tmp, out=tmp)
        np.sum(tmp, axis=0, out=col)
        np.log(col, out=col)
        np.add(x, col, out=tmp)
    total = 0
    for i in range(_LOOP):
        total += i * i
    return total


class Yardstick:
    def __init__(self):
        self.x = np.random.default_rng(0).random((100, 3072))
        self.tmp = np.empty_like(self.x)
        self.col = np.empty(self.x.shape[1])
        self.times: list[float] = []
        self.last = self.measure()

    def measure(self) -> float:
        start = time.perf_counter()
        _work(self.x, self.tmp, self.col)
        seconds = time.perf_counter() - start
        self.times.append(seconds)
        return seconds

    def rescale(self, seconds: float | None) -> float | None:
        """`seconds` of the operation that just ended, at the yardstick's nominal speed."""
        before, self.last = self.last, self.measure()
        if seconds is None:
            return None
        return seconds * NOMINAL_S / (0.5 * (before + self.last))
