"""In-process serial execution (the default backend)."""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable

from repro.core.backends.base import BatchProgress

if TYPE_CHECKING:
    from repro.core.runner import RunConfig


class SerialBackend:
    """Runs every benchmark in this process, one after another.

    Each item runs the moment it is pulled, so a caller's per-item work
    (cache probe, run, cache write) interleaves unit by unit.  It is the
    reference implementation the pool is checked against.
    """

    name = "serial"

    def __init__(self) -> None:
        #: Bench ids actually simulated, in execution order (cache hits
        #: never reach the backend, so tests use this to count real work).
        self.executed: list[str] = []

    def execute_stream(
        self,
        items: "Iterable[tuple[str, RunConfig]]",
        on_result: BatchProgress,
    ) -> None:
        # Looked up at call time, through the runner module, so a
        # wrapper installed there (profiling, tracing) sees every unit.
        from repro.core.runner import execute_one

        for index, (bench_id, cfg) in enumerate(items):
            started = time.perf_counter()
            result = execute_one(bench_id, cfg)
            elapsed = time.perf_counter() - started
            self.executed.append(bench_id)
            on_result(index, elapsed, result)
