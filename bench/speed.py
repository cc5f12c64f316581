"""The host's current pace, from a fixed pure-Python kernel.

The benchmark shares its host with other machines' work.  On the reference
host (2 vCPUs) the pace of one vCPU flips between a fast and a slow level,
about 1.6 times apart, several times a second, and the share of slow time
drifts over tens of seconds; the two vCPUs drift independently.  Raw
timings of one workload then spread by 10 to 35 % between runs, whatever
the code.

So the benchmark pins itself and every process it starts to one CPU, and
between operations it times ``kernel``, a fixed piece of Python shaped
like the library's inner loops.  Its slowdowns track theirs: sampled in
turn for 90 s, hom-sets, representation searches and lifts slowed by 0.93
to 0.99 times the kernel's slowdown.  ``rescale`` turns a measured interval
into seconds at the reference pace: it multiplies by ``REFERENCE_S`` over
the mean kernel time sampled within half the interval's length of it (at
least ``MIN_WINDOW_S``): a short operation runs at one level and gets the
pace sampled right next to it, a long one gets the mix over its span.
The kernel never changes with the library, so a change to the library
moves rescaled times as much as raw ones; the results file keeps the raw
ones.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass

# A kernel time typical of the reference host (its fast and slow levels are
# about 0.009 and 0.015 s).  It only sets the unit: any constant gives the
# same ratios between runs.
REFERENCE_S = 0.0135
MIN_WINDOW_S = 0.05


@dataclass(frozen=True)
class _Unit:
    coords: tuple


def _key(t):
    return (t[0] & 3, t[0], -t[1])


def kernel() -> int:
    """Multiply small group elements the way the library's unit groups do
    (list and tuple building, modular reduction, frozen dataclasses), sort
    triples with a key and look them up in a small set."""
    mods = (6, 10)
    x = _Unit((1, 3))
    seen = set()
    hits = 0
    for i in range(3000):
        summed = [a + b for a, b in zip(x.coords, (i % 5, i % 7))]
        y = _Unit(tuple(c % m for c, m in zip(summed, mods)))
        triple = tuple(sorted((x.coords, y.coords, (i % 6, 0)), key=_key))
        if triple in seen:
            hits += 1
        else:
            seen.add(triple)
        x = y
    return hits


def sample() -> list:
    """[monotonic time, seconds one kernel() takes now]."""
    start = time.perf_counter()
    kernel()
    return [time.monotonic(), time.perf_counter() - start]


def pin_to_one_cpu():
    """Keep this process, and every process it starts, on one CPU, so the
    pace sampled here is the pace the timed work gets."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def rescale(seconds, start, end, samples) -> float:
    """``seconds``, measured over [start, end] (monotonic), at the
    reference pace."""
    reach = max(MIN_WINDOW_S, (end - start) / 2)
    near = [p for t, p in samples if start - reach <= t <= end + reach]
    if not near:
        near = [min(samples, key=lambda s: abs(s[0] - start))[1]]
    return seconds * REFERENCE_S / statistics.fmean(near)
