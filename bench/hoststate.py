"""Host-speed probe: scales measured times to one reference host speed.

On the shared virtual machines this benchmark was built on, the same
pure-Python code takes from one to two times as long from one second to the
next, and the share of slow time drifts over minutes, so that two sets of
runs of the same code a few minutes apart differed by far more than any
change worth measuring.  Slow stretches can outlast a whole run, so no choice
of which ops to count can remove them.

The probe is a fixed piece of exact rational arithmetic that involves no
library code.  The timed loop brackets every window of ops with it, and
scales each op's time by (``REFERENCE_S`` / the probe's time around the op's
window) ** ``ELASTICITY``.  Times are then reported at the host speed at which
the probe takes ``REFERENCE_S``: about the full speed of the machine the
benchmark was built on (2 vCPUs, Python 3.11.7).  The probe never touches the
program under test, so a faster program still reads faster.

The library's ops slow down less than the probe does: over repeated runs of
the same seed on the build machine, op times varied least once scaled with
the probe's time to the power 0.8 (principality and cli alike), against 1.0
for plain proportion.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

# Ten probe units at the full speed of the build machine.
REFERENCE_S = 1.4e-3
ELASTICITY = 0.8
_UNITS = 10
_REPEATS = 3

_COEFFS = tuple(Fraction(7 * i - 50, 3 + i % 5) for i in range(12))
_POINTS = (Fraction(13, 17), Fraction(-29, 19), Fraction(41, 23), Fraction(5, 7))


def _unit() -> Fraction:
    acc = Fraction(0)
    for t in _POINTS:
        v = Fraction(0)
        for c in reversed(_COEFFS):
            v = v * t + c
        acc += v
    return acc


def probe() -> float:
    """Median duration, in seconds, of three runs of ten probe units."""
    clock = time.perf_counter
    samples = []
    for _ in range(_REPEATS):
        t0 = clock()
        for _ in range(_UNITS):
            _unit()
        samples.append(clock() - t0)
    samples.sort()
    return samples[_REPEATS // 2]


def scale(before: float, after: float) -> float:
    """Factor from times measured between two probe readings to reference speed."""
    return (REFERENCE_S / math.sqrt(before * after)) ** ELASTICITY
