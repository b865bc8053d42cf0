"""Host-speed calibration: a fixed reference computation timed beside the program.

On shared machines the speed of the host drifts by tens of percent over
seconds to minutes, for the program and for any other code alike (see
README.md). The benchmark therefore times this module's `reference` next
to the program and reports the program's times rescaled to a host on
which one reference call takes NOMINAL_S.

This module imports nothing but the standard library, so a child
interpreter can load it after timing `import dnadecide.cli` without
changing what that import has to load.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

# About the median reference time seen during runs on the 2-core host the
# benchmark was written on, so rescaled times read like wall times there.
NOMINAL_S = 0.0015
INTERVAL_S = 0.025  # wall time between speed samples while jobs run
MARGIN_S = 0.1  # samples this close to a job also count for it
SAMPLE_S = 0.012  # reference time per speed sample outside a run

_TEXT = "GATTACACAGCTGTTAACAGGCCT" * 12


def reference() -> tuple:
    """Fixed interpreter-bound work like the program's: fractions, slices, dicts."""
    total = Fraction(0)
    seen: dict[str, int] = {}
    for i in range(1, 400):
        total += Fraction(i % 7 + 1, i + 3)
        window = _TEXT[i % 280 : i % 280 + 6]
        seen[window] = seen.get(window, 0) + 1
    hits = [p for p in range(len(_TEXT) - 5) if _TEXT[p : p + 6] == "CAGCTG"]
    return total, len(seen), hits


def reference_seconds(budget: float) -> list[float]:
    """Times of back-to-back reference calls, at least one, until `budget` is spent.

    The garbage collector is off meanwhile, so a large heap left by the
    program does not slow the reference down.
    """
    samples: list[float] = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        while not samples or sum(samples) < budget:
            began = time.perf_counter()
            reference()
            samples.append(time.perf_counter() - began)
    finally:
        if was_enabled:
            gc.enable()
    return samples


def sample_speed() -> float:
    """Median time of one reference call on the host as it is now."""
    return statistics.median(reference_seconds(SAMPLE_S))


class HostSpeed:
    """Samples the host's speed around jobs and rescales their times by it.

    A sample is one reference call in this process. With `during_jobs`, a
    SIGALRM timer takes one every INTERVAL_S, in this thread, between the
    program's bytecodes, so a 1 s job is rescaled by the speed during that
    second rather than at its ends; the samples' own time is taken off
    the job's. Jobs that run in a child process are sampled only between
    jobs instead, since a sample taken meanwhile would time another core,
    or share this one with the child. `adjusted()` rescales each job's
    time by the median of the samples taken within MARGIN_S of it, or by
    the latest sample before it when there is none.
    """

    def __init__(self, during_jobs: bool = True) -> None:
        self._during_jobs = during_jobs
        self._samples: list[tuple[float, float]] = []  # (start, seconds) of each reference call
        self._sampling_s = 0.0  # total time spent in samples
        self._jobs: list[tuple[float, float, float]] = []  # (start, end, seconds) of each job
        self._old_handler = None

    def __enter__(self) -> "HostSpeed":
        self._sample()
        if self._during_jobs:
            self._old_handler = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self._during_jobs:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old_handler)

    def _sample(self, *signal_args) -> None:
        began = time.perf_counter()
        took = reference_seconds(0)[0]
        self._samples.append((began, took))
        self._sampling_s += time.perf_counter() - began

    def timed(self, job):
        """Run `job` and record its time; return what it returns."""
        sampling_s, began = self._sampling_s, time.perf_counter()
        try:
            return job()
        finally:
            ended = time.perf_counter()
            self._jobs.append((began, ended, ended - began - (self._sampling_s - sampling_s)))
            if not self._during_jobs:
                self._sample()

    def adjusted(self) -> list[float]:
        """Each recorded job's time at the nominal host speed."""
        starts = [start for start, _ in self._samples]
        out = []
        for began, ended, seconds in self._jobs:
            lo = bisect.bisect_left(starts, began - MARGIN_S)
            hi = bisect.bisect_right(starts, ended + MARGIN_S)
            if lo == hi:  # none near: the latest sample, taken before the job began
                lo -= 1
            near = [took for _, took in self._samples[lo:hi]]
            out.append(seconds * NOMINAL_S / statistics.median(near))
        return out
