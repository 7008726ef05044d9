"""Pluggable execution backends for the suite runner.

The runner orchestrates *which* benchmarks to run (dedup, cache lookups,
result assembly); a backend decides *how* the cache misses execute:

- :class:`SerialBackend` — in-process, one at a time (default).
- :class:`ProcessPoolBackend` — fan out across worker processes.
- :class:`AsyncBackend` — a process pool fed from a streaming
  orchestrator with a bounded in-flight window; result I/O (cache
  writes, progress) overlaps in-flight simulations.
- :class:`ShardedBackend` — deterministic K-of-N partition, wrapping
  any of the above, for CI/fleet splits.

``make_backend`` builds one from CLI-shaped arguments.
"""

from __future__ import annotations

from repro._lazy import attach
from repro.core.backends.base import (
    BackendError,
    BatchProgress,
    ExecutionBackend,
    ProgressCallback,
    StreamingBackend,
    WorkItem,
)
from repro.core.backends.serial import SerialBackend
from repro.core.backends.sharded import ShardedBackend, parse_shard, shard_ids

# The pool backends pull in concurrent.futures.process and
# multiprocessing; only a run that asks for a pool loads them.
__getattr__, __dir__, __all__ = attach(__name__, globals(), {
    "repro.core.backends.async_": ("AsyncBackend",),
    "repro.core.backends.process": ("ProcessPoolBackend",),
}, eager=(
    "BACKEND_NAMES",
    "BackendError",
    "BatchProgress",
    "ExecutionBackend",
    "ProgressCallback",
    "SerialBackend",
    "ShardedBackend",
    "StreamingBackend",
    "WorkItem",
    "make_backend",
    "parse_shard",
    "shard_ids",
))

#: CLI names of the selectable leaf backends.
BACKEND_NAMES: tuple[str, ...] = (SerialBackend.name, "process", "async")


def make_backend(
    name: str | None = None,
    jobs: int = 1,
    shard: "str | tuple[int, int] | None" = None,
    window: int | None = None,
) -> ExecutionBackend:
    """Build a backend from CLI-shaped knobs.

    *name* of ``None`` picks serial unless ``jobs > 1``.  A *shard* spec
    (``"K/N"`` or ``(k, n)``) wraps the leaf backend in a
    :class:`ShardedBackend`.  *window* pins the async backend's
    in-flight bound (ignored by the others); ``None`` leaves it
    adaptive, sized from observed result sizes.
    """
    if name is None:
        name = "process" if jobs > 1 else SerialBackend.name
    if name == SerialBackend.name:
        backend: ExecutionBackend = SerialBackend()
    elif name == "process":
        from repro.core.backends.process import ProcessPoolBackend

        backend = ProcessPoolBackend(jobs=max(jobs, 1))
    elif name == "async":
        from repro.core.backends.async_ import AsyncBackend

        backend = AsyncBackend(jobs=max(jobs, 1), window=window)
    else:
        raise BackendError(
            f"unknown backend {name!r}; known: {', '.join(BACKEND_NAMES)}"
        )
    if shard is not None:
        index, count = parse_shard(shard) if isinstance(shard, str) else shard
        backend = ShardedBackend(index, count, inner=backend)
    return backend

