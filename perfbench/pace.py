"""The host's pace, probed between the timed parts of a round.

The benchmark's reference machine is a VM on a shared host whose speed
switches, in phases of seconds to minutes, between states up to 1.5-2x
apart, and the interpreter and memory slow independently of each other.
Raw wall times of ten runs then spread by a third, more than any bound the
benchmark may set.  So every timed part is bracketed by probes: a fixed
piece of interpreter work and a fixed NumPy gather over a table larger
than the caches.  The pace is the geometric mean of their times, and a
part's time at the reference pace is

    wall time * REFERENCE_S / (mean of the probes before and after it).

On a host whose speed holds still the probes read the same throughout, and
the scaled times are the wall times times one constant.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# The pace of a typical phase on the reference machine (2-vCPU Xeon VM,
# Python 3.11), so that scaled times read close to its wall times.
REFERENCE_S = 0.005
REPEATS = 3

_rng = np.random.default_rng(0)
_TABLE = _rng.integers(0, 1 << 20, 1 << 20)  # 8 MiB
_INDEX = _rng.integers(0, 1 << 20, 1 << 17)


def _interpreter() -> None:
    total = 0
    for i in range(40_000):
        total += i * i % 7


def _memory() -> None:
    np.bincount(_TABLE[_INDEX] ^ _INDEX, minlength=1 << 20)


def _median_s(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def probe() -> float:
    """The pace now, in seconds (about REFERENCE_S on the reference machine)."""
    return (_median_s(_interpreter) * _median_s(_memory)) ** 0.5


def scaled(wall_s: float, before: float, after: float) -> float:
    """A part's wall time at the reference pace."""
    return wall_s * REFERENCE_S / ((before + after) / 2)
