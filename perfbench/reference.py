"""The machine's momentary speed, sampled while a workload runs.

A shared host runs the same Python code up to 1.8x slower in phases
lasting seconds to minutes, so wall times of identical work spread too
widely to compare two versions of the library.  The sampler interrupts
the timed work every `INTERVAL_S` seconds of wall time (SIGALRM, handled
in the main thread between bytecodes) and times one burst of
`reference_work`, a fixed piece of pure Python that shares no code with
the library.  The bursts' time is taken out of the work's time, and the
work is reported in multiples of the mean burst timed during it: both
slow down together when the host does, so their ratio holds still while
the library's own speed still moves it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

INTERVAL_S = 0.25
# reference_work's answer: a burst that computes something else is not
# the same work and would not be comparable between versions.
REFERENCE_CHECKSUM = 16021688


def reference_work() -> int:
    """A few tens of milliseconds of tuples, dicts, sorting, small objects and
    componentwise comparisons, the operations the library spends its
    time on; returns a checksum of what it computed."""

    class Item:
        __slots__ = ("vec", "tag")

        def __init__(self, vec, tag):
            self.vec = vec
            self.tag = tag

        def key(self):
            return (self.tag, self.vec)

    items = [Item(((i * 7919) % 13, (i * 104729) % 7, (i * 31) % 5, i % 3), i % 11)
             for i in range(1200)]
    by_tag: dict = {}
    for it in items:
        by_tag.setdefault(it.tag, []).append(it)
    ordered = sorted(items, key=lambda it: (sum(it.vec), it.key()))
    dominated = 0
    for i, it in enumerate(ordered):
        for k in ordered[max(0, i - 12):i]:
            if all(a <= b for a, b in zip(k.vec, it.vec)):
                dominated += 1
    seen = {it.key() for it in items}
    groups = {frozenset(x.vec for x in group[:6]) for group in by_tag.values()}
    return dominated * 100003 + len(seen) * 101 + len(groups)


class Sampler:
    """Times `reference_work` every `interval` seconds while active.

    Use as a context manager around the timed work; afterwards `bursts`
    holds each burst's seconds and `paused` their sum (the time the work
    was interrupted, handler included).
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.bursts: list = []
        self.paused = 0.0
        self.wrong = 0
        self._previous = None

    def _burst(self, _signum, _frame) -> None:
        entered = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            if reference_work() != REFERENCE_CHECKSUM:
                self.wrong += 1
            self.bursts.append(time.perf_counter() - started)
        finally:
            if collecting:
                gc.enable()
            self.paused += time.perf_counter() - entered

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def sample_once(self) -> None:
        """Time one burst now, for work shorter than the interval."""
        self._burst(signal.SIGALRM, None)

    def mean(self) -> float:
        """Mean seconds per burst: the work's time is a sum over the
        intervals, each stretched by the machine's slowness then."""
        return statistics.fmean(self.bursts)
