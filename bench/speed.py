"""Machine speed, measured with a fixed pure-Python reference loop and a
reference cold start.

On a shared machine the speed of this interpreter drifts by up to about
1.7x over seconds to minutes (a fixed loop, timed in 3 s windows for 90 s
on a shared 2-core Xeon VM, took from 32 to 51 ms).  Timings of the same work
made a minute apart then differ by 15-40%, while td2g's cost is unchanged.
A copy of the loop running on the other core does not see the drift; only
a loop run on the same core, close in time to the work, does.

The benchmark therefore times this loop before each round, after it, and
every `PROBE_INTERVAL_S` during each call (from a timer signal; the time
the loop takes there is left out of the call's time), and scales the
round's time by the loop's mean speed over the round:

    scaled = measured * REFERENCE_MS * mean(1 / loop time of each timing)

The timings are taken at even intervals, so this weights each stretch of
the round by its length.  The speed often switches between two levels,
about 2x apart, for seconds at a time, so a median of the timings would
pick one level and misjudge a long round by up to 25%: six 15 s
`kinv-n1` calls in one process, scaled so, spread 0.27 (range over
median), and 0.04 scaled by the mean speed.  On 4 s stretches of
interleaved work and loop timings, whose raw speed varied 2x, the
residual was 2.5-2.8% (standard deviation) and the fitted exponent 0.99.

The loop uses the same kinds of work as td2g (exact Fractions, tuples of
ints, generator sums, dict stores) and nothing from td2g, so a change to
td2g leaves it alone.
"""

from __future__ import annotations

import signal
import statistics
import sys
import time
from fractions import Fraction

# Typical loop time on the shared 2-core Xeon VM (2.0 GHz) the benchmark was defined on.
REFERENCE_MS = 3.6
# Loops in a reference start, and its typical time on that VM.
START_LOOPS = 10
REFERENCE_START_S = 0.155
# Period of the loop timings taken during a call.
PROBE_INTERVAL_S = 0.2


def sample_ms() -> float:
    """One timing of the reference loop, in ms."""
    t0 = time.perf_counter_ns()
    acc = Fraction(0)
    table = {}
    for i in range(1, 300):
        f = Fraction(i % 7 - 3, i % 5 + 1)
        acc += f * f
        row = tuple(i * k for k in range(8))
        table[row[3] % 101] = sum(x * y for x, y in zip(row, row[1:]))
    return (time.perf_counter_ns() - t0) / 1e6


def boundary_ms() -> float:
    """Median of three loop timings, taken between calls."""
    return statistics.median(sample_ms() for _ in range(3))


class Probe:
    """Times the reference loop every `PROBE_INTERVAL_S` from SIGALRM while entered.

    `samples` holds the timings and `stolen_ns` the time the handler took,
    which the caller leaves out of the time it measures.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.stolen_ns = 0

    def _tick(self, signum, frame):
        t0 = time.perf_counter_ns()
        self.samples.append(sample_ms())
        self.stolen_ns += time.perf_counter_ns() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scaled(times: list[float], samples: list[list[float]]) -> list[float]:
    """Each of `times` at reference speed.  `samples[i]` holds the loop
    timings taken with piece i, at even intervals; the piece is scaled by
    the loop's mean speed over them."""
    if len(times) != len(samples):
        raise ValueError("need the loop timings of every piece")
    return [t * REFERENCE_MS * statistics.fmean(1 / x for x in s) for t, s in zip(times, samples)]


def reference_start_argv() -> list[str]:
    """Command of the reference cold start."""
    return [sys.executable, __file__]


def scaled_starts(times: list[float], refs: list[float]) -> list[float]:
    """Each cold start time at reference speed; `refs` holds the reference
    start times, one before the first cold start and one after each."""
    if len(refs) != len(times) + 1:
        raise ValueError("need a reference start before and after each cold start")
    return [t * 2 * REFERENCE_START_S / (refs[i] + refs[i + 1]) for i, t in enumerate(times)]


if __name__ == "__main__":
    # The reference start.
    import importlib

    for name in ("argparse", "concurrent.futures", "dataclasses", "hashlib", "json"):
        importlib.import_module(name)
    for _ in range(START_LOOPS):
        sample_ms()
