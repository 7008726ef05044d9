"""Core-speed probe: times a fixed piece of pure-Python work, over and over.

Usage::

    python perfbench/probe.py CPU OUT

Pins itself to *CPU* and, every :data:`PERIOD_S`, runs :func:`work` and
appends ``<monotonic time> <thread CPU seconds>`` to *OUT*, until it is
killed.  A co-tenant on the same physical core (or a lower clock) makes
the same work take more CPU time, so the samples taken while a command
runs on that core say how fast the core was meanwhile.  The work is
function and method calls on small integers: it measures how fast the
core runs interpreter code, with a working set too small for the command
sharing the core to evict between samples.  It never changes, so probe
times compare across commits.
"""

from __future__ import annotations

import os
import sys
import time

#: Pause between samples: about 1 % of the core goes to the probe.
PERIOD_S = 0.05


def _search(a: int, b: int, depth: int) -> int:
    if depth == 0:
        return (a * 31 + b) % 17 - 8
    best = -99
    for move in range(3):
        best = max(best, -_search(b, (a + move * 7) % 13, depth - 1))
    return best


class _Counter:
    def __init__(self) -> None:
        self.total = 0

    def step(self, x: int) -> int:
        self.total += x
        return self.total & 7


def work() -> int:
    counter = _Counter()
    return _search(1, 2, 6) + sum(counter.step(i) for i in range(3000))


def main(cpu: int, out: str) -> None:
    os.sched_setaffinity(0, {cpu})
    with open(out, "a", encoding="utf-8", buffering=1) as fh:
        while True:
            started = time.thread_time()
            work()
            fh.write(f"{time.monotonic()} {time.thread_time() - started}\n")
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main(int(sys.argv[1]), sys.argv[2])
