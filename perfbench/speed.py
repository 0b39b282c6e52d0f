"""The host's current speed, from a fixed pure-Python reference kernel.

The benchmark may share its host with other machines' work; on the host
it was defined on, the speed of one core swings by up to 2x within
seconds. A timed job is therefore scaled to the reference speed: kernel
samples are taken just before and just after it and, from a SIGPROF
timer, every TICK_S of CPU time while it runs, and

    scaled = (wall - time spent in the samples) * mean(REF_S / sample).

The kernel is exact rational arithmetic on a dict keyed by exponent
tuples, the same kind of work as lndkit's, so both slow down together.
REF_S is fixed for good: changing it would rescale every recorded number.

This module imports only ``signal``, ``time`` and the builtin ``math``,
so a fresh interpreter can load it before ``import lndkit`` without doing
a measurable share of that import's work.
"""

import signal
from math import gcd
from time import perf_counter

# kernel time at full speed on the host the benchmark was defined on
# (2-core x86-64 VM, Python 3.11.7)
REF_S = 0.00025
TICK_S = 0.025


def _terms(a: int, b: int, c: int) -> dict:
    return {
        (i, j, k): ((a * i - b * j + c * k + 1) or 1, i + 2 * j + k + 3)
        for i in range(3) for j in range(3) for k in range(2) if i + j + k <= 3
    }


_P = _terms(7, 3, 5)
_Q = _terms(2, 9, 4)


def _mul(x, y):
    n, d = x[0] * y[0], x[1] * y[1]
    g = gcd(n, d)
    return n // g, d // g


def _add(x, y):
    n, d = x[0] * y[1] + y[0] * x[1], x[1] * y[1]
    g = gcd(n, d)
    return n // g, d // g


def kernel() -> int:
    """Multiply two fixed 14-term polynomials whose rational coefficients
    are (numerator, denominator) pairs reduced by gcd."""
    out = {}
    for m1, c1 in _P.items():
        for m2, c2 in _Q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            c = _mul(c1, c2)
            out[m] = _add(out[m], c) if m in out else c
    return len(out)


def sample() -> float:
    """Seconds one kernel run takes now: the lower of two runs, since an
    interrupt can only make a run slower."""
    best = None
    for _ in range(2):
        t = perf_counter()
        kernel()
        dt = perf_counter() - t
        best = dt if best is None or dt < best else best
    return best


class Meter:
    """Scales the wall time of one interval at a time to the reference speed.

    Only one Meter may be running: it owns SIGPROF and ITIMER_PROF.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t = perf_counter()
        self.samples.append(sample())
        self.spent += perf_counter() - t

    def __enter__(self):
        self.samples = [sample()]
        self.spent = 0.0
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        wall = perf_counter() - self.start
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.samples.append(sample())
        speedup = sum(REF_S / s for s in self.samples) / len(self.samples)
        self.scaled = (wall - self.spent) * speedup
        return False
