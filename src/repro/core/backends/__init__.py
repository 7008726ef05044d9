"""Execution backends for the suite runner.

The runners orchestrate *which* benchmarks to run (dedup, sharding,
cache lookups, result assembly); a backend decides *how* the cache
misses execute, behind one streaming call, ``execute_stream(items,
on_result)``:

- :class:`SerialBackend` — in-process, one at a time (default).
- :class:`PoolBackend` — a process pool fed through a bounded adaptive
  in-flight window; result I/O (cache writes, progress) overlaps
  in-flight simulations.

``make_backend`` builds one from CLI-shaped arguments.
"""

from __future__ import annotations

from repro._lazy import attach
from repro.core.backends.base import (
    BackendError,
    BatchProgress,
    ExecutionBackend,
    ProgressCallback,
    WorkItem,
)
from repro.core.backends.serial import SerialBackend
from repro.errors import ConfigError

# The pool pulls in concurrent.futures.process and multiprocessing; only
# a run that asks for it loads them.
__getattr__, __dir__, __all__ = attach(__name__, globals(), {
    "repro.core.backends.pool": ("PoolBackend",),
}, eager=(
    "BACKEND_NAMES",
    "BackendError",
    "BatchProgress",
    "ExecutionBackend",
    "ProgressCallback",
    "SerialBackend",
    "WorkItem",
    "make_backend",
))

#: CLI names of the backends: ``process`` and ``async`` both select the
#: pool (two names kept so existing invocations keep working).
BACKEND_NAMES: tuple[str, ...] = (SerialBackend.name, "process", "async")


def make_backend(name: str | None = None, jobs: int = 1) -> ExecutionBackend:
    """Build a backend from CLI-shaped knobs.

    *name* of ``None`` picks serial unless ``jobs > 1``.  A *jobs* below
    one, or above one with the in-process serial backend, is a
    :class:`~repro.errors.ConfigError` rather than silently ignored.
    """
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    if name is None:
        name = "async" if jobs > 1 else SerialBackend.name
    if name == SerialBackend.name:
        if jobs > 1:
            raise ConfigError(
                f"--backend serial runs in this process; it cannot use "
                f"--jobs {jobs}"
            )
        return SerialBackend()
    if name in BACKEND_NAMES:
        from repro.core.backends.pool import PoolBackend

        return PoolBackend(jobs=jobs)
    raise BackendError(
        f"unknown backend {name!r}; known: {', '.join(BACKEND_NAMES)}"
    )
