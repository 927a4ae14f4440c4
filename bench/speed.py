"""Reference loop that tracks the host's speed while the ops run.

The benchmark machine's speed changes in plateaus of about a second, by up
to a factor of two, because other tenants share its cores; CPU time changes
with wall time, so it is no way out.  A fixed pure-Python loop (tuples,
dicts, integers, fractions: the kind of work flatspec does) slows down with
the ops: over 150 s, 10-second means of a ``multiplicity_table`` call varied
by 10.6% (coefficient of variation) and its ratio to the loop by 2.2%.

End-to-end times are therefore reported in reference-speed seconds,
``raw_s * NOMINAL_S / mean(samples)``.  Samples are taken every INTERVAL_S
inside the processes that run the ops; an op is scaled by the samples within
WINDOW_S of it, set-up and whole passes by all of theirs.  The mean, not the
median, because the ops pay for slow spells too.  Samples taken by the
parent between children tracked the children badly, so every sample comes
from the process that ran the op (for ``cli-cold``, ``cli_child.py``).
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# About the median reference-loop time when the benchmark was defined
# (Intel Xeon, 2 vCPUs, Python 3.11.7).  A constant: changing it rescales
# every figure.
NOMINAL_S = 0.006
# Time between two samples inside one worker process.
INTERVAL_S = 0.1
# An op is scaled by the samples taken within this many seconds of it.
WINDOW_S = 1.0


def now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_s() -> float:
    """Seconds taken by one run of the reference loop."""
    t0 = time.perf_counter()
    table = {}
    acc = Fraction(0)
    for i in range(6000):
        key = (i % 61, i * 7 % 13)
        table[key] = table.get(key, 0) + i * i % 97
        if i % 8 == 0:
            acc += Fraction(i % 5, 1 + i % 7)
    if not table or acc < 0:
        raise AssertionError("reference loop produced nothing")
    return time.perf_counter() - t0


def sample() -> list[float]:
    """One reference sample as [monotonic time at its end, seconds taken]."""
    took = reference_s()
    return [now(), took]


class Sampler:
    """Reference samples every INTERVAL_S while started.

    The samples come from a SIGALRM handler, so that an op lasting seconds
    is sampled inside, not only at its edges; ``spent_s`` is the time the
    samples took, which the caller subtracts from what it times.  Only for
    the main thread of a process that uses no other SIGALRM timer.
    """

    def __init__(self):
        self.samples: list[list[float]] = []
        self.spent_s = 0.0

    def _take(self, *_):
        t0 = time.perf_counter()
        self.samples.append(sample())
        self.spent_s += time.perf_counter() - t0

    def start(self, periodic: bool = True) -> None:
        """Sample now and, if ``periodic``, every INTERVAL_S until ``stop``."""
        self._take()
        if periodic:
            signal.signal(signal.SIGALRM, self._take)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._take()


def scale(samples) -> float:
    """Factor that turns raw seconds into reference-speed seconds; 1 when
    there are no samples."""
    import statistics  # here, not at the top: CLI ops import this module

    if not samples:
        return 1.0
    return NOMINAL_S / statistics.fmean(took for _, took in samples)


def local_scale(samples, start: float, end: float) -> float:
    """``scale`` over the samples within WINDOW_S of [start, end], or over
    all of them when none is that close."""
    near = [s for s in samples if start - WINDOW_S <= s[0] <= end + WINDOW_S]
    return scale(near or samples)
