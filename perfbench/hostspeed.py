"""Host-speed probe: report times at a fixed reference speed of the core.

On a shared virtual machine one core's speed changes by up to 1.8x from one
stretch of a few seconds to the next, as other tenants come and go, so the
raw time of a unit of several seconds spreads more between runs than any
bound worth keeping.  ``Supervisor`` runs a child on one core and, every
``PERIOD_S``, stops it with SIGSTOP, times a fixed piece of work of the
same kind as mmmcoh's (``Fraction`` arithmetic on values looked up in a
large dict) on that core, and resumes it.  Each stretch the child ran is weighted by the
probes around it: a stretch of ``t`` seconds during which the probe took
``p`` seconds counts ``t * REF_PROBE_S / p`` reference seconds,
the time it would have taken on a core that runs the probe in
``REF_PROBE_S``.  A program that does more work takes proportionally more
reference seconds; a core that slows down does not change them.

The probe and the child must share one core, so the caller pins itself with
``pin_to_one_cpu`` before starting children, which inherit the pinning.
The child's own timestamps (``time.perf_counter``, CLOCK_MONOTONIC on
Linux, shared by all processes) say which interval to convert.
"""

from __future__ import annotations

import bisect
import os
import random
import select
import signal
import statistics
from fractions import Fraction
from time import perf_counter
from typing import List, Tuple

PERIOD_S = 0.25
WINDOW_S = 0.5
# the probe's time on the host the baseline comes from, at its usual speed
REF_PROBE_S = 0.010

# Fractions in a dict far larger than the caches, as mmmcoh's sparse rows
# are; a probe that fits in the first-level cache misses the slowdown that
# other tenants' memory traffic causes
_rng = random.Random(5)
_TABLE = {i * 7919 % 1000003: Fraction(_rng.randint(1, 99), _rng.randint(1, 99)) for i in range(250000)}
_KEYS = _rng.sample(sorted(_TABLE), 2000)


def probe() -> float:
    """Seconds this core takes for the fixed probe work right now."""
    t0 = perf_counter()
    total, scaled = Fraction(0), {}
    for key in _KEYS:
        value = _TABLE[key]
        scaled[key] = value * 2
        if value < 1:
            total += value
    return perf_counter() - t0


def pin_to_one_cpu() -> int:
    """Pin this process (and the children it starts) to one of its CPUs."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Supervisor:
    """Run children one at a time under periodic probes.  ``probes`` holds
    ``(time, seconds)`` for every probe, ``stretches`` ``(start, end)`` for
    every interval a child could run."""

    def __init__(self):
        self.probes: List[Tuple[float, float]] = []
        self.stretches: List[Tuple[float, float]] = []

    def _probe(self) -> float:
        seconds = probe()
        now = perf_counter()
        self.probes.append((now, seconds))
        return now

    def run(self, popen, deadline: float) -> Tuple[int, bool]:
        """Start a child with ``popen()`` and supervise it until it ends or
        ``deadline`` passes; returns (exit code, timed out)."""
        start = self._probe()
        proc = popen()
        fd = os.pidfd_open(proc.pid)
        try:
            while True:
                ready, _, _ = select.select([fd], [], [], max(0.0, min(PERIOD_S, deadline - perf_counter())))
                if ready:
                    code = proc.wait()
                    self.stretches.append((start, perf_counter()))
                    self._probe()
                    return code, False
                if perf_counter() >= deadline:
                    # pool workers share the child's session; stop them all
                    os.killpg(proc.pid, signal.SIGKILL)
                    return proc.wait(), True
                os.kill(proc.pid, signal.SIGSTOP)
                _, status = os.waitpid(proc.pid, os.WUNTRACED)
                self.stretches.append((start, perf_counter()))
                start = self._probe()
                if not os.WIFSTOPPED(status):
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    return proc.returncode, False
                os.kill(proc.pid, signal.SIGCONT)
        finally:
            os.close(fd)

    def seconds(self, start: float, end: float) -> Tuple[float, float]:
        """(seconds a child could run within [start, end], the same in
        reference seconds).  A stretch's probe time is the median of the
        probes within ``WINDOW_S`` of it, which damps the jitter of a single
        10 ms probe and still follows changes of speed that last seconds."""
        raw = ref = 0.0
        times = [t for t, _ in self.probes]
        for a, b in self.stretches:
            overlap = min(b, end) - max(a, start)
            if overlap > 0:
                lo = bisect.bisect_left(times, a - WINDOW_S)
                hi = bisect.bisect_right(times, b + WINDOW_S)
                p = statistics.median(s for _, s in self.probes[lo:hi])
                raw += overlap
                ref += overlap * REF_PROBE_S / p
        return raw, ref
