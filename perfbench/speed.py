"""Host speed gauge: reports times at the reference box's speed.

The benchmark runs on shared hosts whose speed flips between states
about 2x apart within a second or two, and the slowness shows in CPU
time as much as in wall time.  So the run times a fixed pure-Python
kernel that does what the simulator does most: heap pushes and pops of
small objects, method calls, dict traffic and generator resumptions.
It uses the standard library only, so no change to the program makes
it faster or slower.

A unit of work is scaled by samples taken as close to it as possible.
An in-process site (a few tenths of a second) is bracketed by two
readings taken outside its timed region, and its speed factor is
:data:`REFERENCE_SAMPLE_S` over the mean of the two.  A survey pass
runs for seconds on worker processes, so a :class:`Sampler` thread in
the parent, which mostly waits on the workers, samples throughout the
pass, and the factor is the reference over the mean sample.  The
sampler times itself in thread CPU time: the host's slowness shows
there in full (the guest cannot tell it from work), while the time the
thread waits for a core behind the workers does not.

Times are multiplied by the factor and rates divided by it, so a unit
on a host that is 1.4x slower than the reference box reports what the
same work takes there.  Raw times, factors and every sample go to the
run's record, so nothing is hidden by the scaling.
"""

from __future__ import annotations

import heapq
import statistics
import threading
from time import perf_counter as clock
from time import thread_time
from typing import Callable, List

#: one sample's time on the reference box (2-core x86 VM, Python 3.11)
#: when the host was quiet; only ratios to it matter
REFERENCE_SAMPLE_S = 0.0120
#: a sampler thread's pause between samples: about a twentieth of a
#: core, taken evenly from the workers it shares the host with
SAMPLER_PERIOD_S = 0.2
#: events one sample pushes through the heap
SAMPLE_EVENTS = 4000


class _Event:
    __slots__ = ("when", "seq", "weight")

    def __init__(self, when: float, seq: int, weight: int) -> None:
        self.when = when
        self.seq = seq
        self.weight = weight

    def __lt__(self, other: "_Event") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)


def _process(table: dict):
    total = 0
    while True:
        event = yield total
        slot = event.seq & 255
        table[slot] = table.get(slot, 0) + event.weight
        total += event.weight


def sample(timer: Callable[[], float] = clock) -> float:
    """Seconds one run of the kernel takes now, by *timer*."""
    start = timer()
    table: dict = {}
    proc = _process(table)
    next(proc)
    heap: List[_Event] = []
    state = 12345
    for seq in range(SAMPLE_EVENTS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, _Event(state / 2147483648.0, seq, seq & 7))
    while heap:
        proc.send(heapq.heappop(heap))
    proc.close()
    return timer() - start


class Gauge:
    """Readings taken over one run, and the scales they give."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def reading(self, count: int = 1) -> float:
        """The median of *count* samples taken now."""
        taken = [sample() for _ in range(count)]
        self.samples += taken
        return statistics.median(taken)

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Speed factor of work done between two readings."""
        return REFERENCE_SAMPLE_S / ((before + after) / 2.0)

    def sampler(self) -> "Sampler":
        """A sampler thread whose samples this gauge also keeps."""
        return Sampler(self.samples)


class Sampler:
    """A thread that samples while its block runs; *keep* gets a copy."""

    def __init__(self, keep: List[float]) -> None:
        self.samples: List[float] = []
        self._keep = keep
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLER_PERIOD_S):
            self.samples.append(sample(timer=thread_time))

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if not self.samples:  # a block shorter than one period
            self.samples.append(sample(timer=thread_time))
        self._keep += self.samples

    def scale(self) -> float:
        """Speed factor of the work done while sampling."""
        return REFERENCE_SAMPLE_S / statistics.mean(self.samples)
