"""Reference loop: fixed work that tracks the machine's current speed.

A shared host slows every process on it by up to about 1.9x, in phases
that last from seconds to minutes.  The gated op figures therefore
divide each op's time by the time of this loop, run just before the op:
a ratio in units of ``ref`` moves when the engine does more or less
work, and far less than wall time when the host speeds up or slows
down.

The loop never calls the engine, so no change to ``src/`` changes it.  It
is built like the engine's two kinds of hot path.  Every derivative comes
from dual numbers: here a slotted forward-mode dual number whose
arithmetic makes tuples from generators, with a few ``math`` calls and a
small numpy reduction per gradient.  Newton solves eliminate on small
numpy arrays: here Gaussian elimination of fixed 3x3 systems, row by row.
A host's slow phases slow these two kinds of code by different factors.
Timing both tracked the ``newton`` ops better than either alone, and
the ``record`` ops as well as either.  The loop took 1.6-3.3 ms on a
2-vCPU cloud VM with Python 3.11, depending on the host's load.
"""

import gc
import math
import time

import numpy as np

POINTS = 50  # gradients per call
DIM = 5
SYSTEMS = 50  # linear solves per call


class _Dual:
    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v = v
        self.d = tuple(d)

    def __add__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.v + o.v, (a + b for a, b in zip(self.d, o.d)))
        return _Dual(self.v + o, self.d)

    __radd__ = __add__

    def __mul__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.v * o.v, (a * o.v + self.v * b for a, b in zip(self.d, o.d)))
        return _Dual(self.v * o, (a * o for a in self.d))

    __rmul__ = __mul__


def _sin(x):
    return _Dual(math.sin(x.v), (math.cos(x.v) * a for a in x.d))


def _gradients() -> float:
    """Gradients of a fixed smooth function at POINTS fixed points."""
    acc = 0.0
    for k in range(POINTS):
        xs = [_Dual(0.1 * k + i, (1.0 if j == i else 0.0 for j in range(DIM))) for i in range(DIM)]
        h = xs[0] * xs[1] + _sin(xs[2]) * xs[3] + 0.5 * xs[4] * xs[4]
        g = np.array(h.d)
        acc += float(g @ g)
    return acc


def _eliminations() -> float:
    """Forward elimination of SYSTEMS fixed diagonally dominant 3x3 systems."""
    acc = 0.0
    for k in range(SYSTEMS):
        a = np.array([[4.0 + k, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
        b = np.array([1.0, 2.0, 3.0])
        for i in range(3):
            for j in range(i + 1, 3):
                f = a[j, i] / a[i, i]
                a[j, i:] -= f * a[i, i:]
                b[j] -= f * b[i]
        acc += float(b.sum())
    return acc


def work() -> float:
    """The loop's fixed work: both parts, once."""
    return _gradients() + _eliminations()


def timed() -> float:
    """Seconds one call of ``work()`` takes now.  The cyclic garbage
    collector is paused for the call: otherwise the loop could pay for
    collecting what the op before it left, which depends on the workload."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
