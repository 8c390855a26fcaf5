"""Host-speed calibration for the timed runs.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent within seconds: the same 60-simulated-second job takes
2.2 s one minute and 3.7 s the next, with the process on a CPU the whole
time.  No run length averages that out, so the timed runs measure the
host's speed alongside the program's.

This module times a fixed kernel (an integer loop plus a small
heap-and-dict event loop, the shape of the simulator's own hot paths)
between slices of the program's work, in the same process.  The kernel
never changes and calls nothing in ``repro``, so a change to the program
cannot move it; a change in the host's speed moves both alike.  A
slice's time, scaled by ``REFERENCE_S / kernel time`` measured next to
it, is the time the slice would take on the host at its reference speed:
a *reference second*.  Every time the benchmark reports in its timed
runs is in reference seconds; the raw wall-clock figures are printed on
a ``#`` line beside them.
"""

from __future__ import annotations

import heapq
import random
import time

#: The kernel's time on the reference host (2-vCPU VM, CPython 3.11, in
#: a quiet period): the length of one reference second is fixed by it.
REFERENCE_S = 0.005

_INT_LOOPS = 15000
_EVENTS = 1500


class _Event:
    __slots__ = ("key", "data")

    def __init__(self, key: int, data: list) -> None:
        self.key = key
        self.data = data


def kernel() -> int:
    """The fixed work the host's speed is measured by."""
    x = 0
    for i in range(_INT_LOOPS):
        x = (x * 31 + i) & 0xFFFF
    rng = random.Random(1)
    queue: list = []
    state: dict = {}
    seq = 0
    for i in range(256):
        seq += 1
        heapq.heappush(queue, (rng.random(), seq, _Event(i, [i])))
    for n in range(_EVENTS):
        t, _, event = heapq.heappop(queue)
        entry = state.get(event.key)
        if entry is None:
            entry = state[event.key] = {"count": 0, "recent": []}
        entry["count"] += 1
        entry["recent"].append(event.data[0])
        if len(entry["recent"]) > 32:
            del entry["recent"][:16]
        seq += 1
        heapq.heappush(
            queue, (t + rng.random(), seq, _Event((event.key * 7 + n) % 4096, [n]))
        )
    return x + len(state)


def sample() -> float:
    """The host's speed now, relative to the reference (1.0 = reference)."""
    start = time.perf_counter()
    kernel()
    return REFERENCE_S / (time.perf_counter() - start)


def warm_up() -> None:
    """Run the kernel until the interpreter has specialised its code."""
    for _ in range(3):
        kernel()
