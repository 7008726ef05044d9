"""The execution-backend contract.

A backend owns *how* the units of a planned batch execute — in this
process, or fanned out across worker processes.  It does not own *what*
a run does: every backend funnels through the same picklable
:func:`repro.core.runner.execute_one`, so results are byte-identical
regardless of backend or job count.  Nor does it own *which* units run:
deduplication, sharding and cache filtering happen in the runners before
a unit reaches the backend.

The primitive unit of work is a :data:`WorkItem` — one ``(bench_id,
config)`` pair.  A stream of items may mix configs, so a parameter
sweep's points interleave freely in a process pool.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.core.results import RunResult
    from repro.core.runner import RunConfig

#: One unit of executable work: a benchmark id plus the config to run it
#: under.  Fully picklable, so a batch can be shipped to worker processes
#: (or, eventually, other machines).
WorkItem = Tuple[str, "RunConfig"]

#: Callback invoked as each run completes: ``(bench_id, elapsed_seconds,
#: result)``.  ``elapsed`` is ``None`` when the result came from a cache
#: (no simulation happened) — never conflate that with a fast run.
ProgressCallback = Callable[[str, "float | None", "RunResult"], None]

#: Per-unit completion callback: ``(index, elapsed_seconds, result)``
#: where *index* is the position at which the backend pulled the item
#: from its stream (bench ids may repeat across a sweep's variants, so
#: the position is the only unambiguous key).
BatchProgress = Callable[[int, float, "RunResult"], None]


class BackendError(ReproError):
    """A backend was misconfigured or failed to execute a batch."""


def shortfall_error(
    backend: object, missing: Sequence[str], total: int
) -> BackendError:
    """The error raised when a backend lost results (crashed worker,
    buggy implementation): names every missing unit so the caller can
    see exactly what never completed."""
    return BackendError(
        f"backend {getattr(backend, 'name', '?')!r} returned no result "
        f"for: {', '.join(missing)} ({total - len(missing)}/{total} "
        f"completed)"
    )


@runtime_checkable
class ExecutionBackend(Protocol):
    """Executes a stream of benchmark runs.

    ``execute_stream`` pulls *items* lazily and may begin executing early
    items while the iterable is still producing later ones — the hook
    :func:`~repro.core.runner.execute_with_cache` uses to overlap
    per-unit cache lookups with execution.  Every result is reported
    through ``on_result`` exactly once, indexed by consumption order,
    and nothing is returned or retained past that call, so a streaming
    reduction runs in memory bounded by what is in flight, however many
    units pass through.  ``on_result`` may be invoked from another
    thread than the caller's, so shared callbacks must synchronise.

    Implementations must derive all run state from the work item alone —
    no process state may leak into results.
    """

    #: Short name used in error messages.
    name: str

    def execute_stream(
        self,
        items: "Iterable[tuple[str, RunConfig]]",
        on_result: BatchProgress,
    ) -> None:
        """Run every streamed item, reporting each through *on_result*."""
        ...
