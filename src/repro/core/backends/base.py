"""The execution-backend contract.

A backend owns *how* a batch of benchmark runs is executed — serially in
this process, fanned out across worker processes, or restricted to a
deterministic shard of the batch.  It does not own *what* a run does:
every backend funnels through the same picklable
:func:`repro.core.runner.execute_one`, so results are byte-identical
regardless of backend or job count.

The primitive unit of work is a :data:`WorkItem` — one ``(bench_id,
config)`` pair.  ``execute_batch`` runs a heterogeneous batch (each item
carries its own config, so a parameter sweep's points interleave freely
in a process pool); ``execute`` is the single-config convenience the
suite runner uses.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Protocol,
    Sequence,
    Tuple,
    TypeVar,
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

#: Batch-level callback: ``(index, elapsed_seconds, result)`` where
#: *index* addresses the submitted batch (bench ids may repeat across a
#: sweep's variants, so the position is the only unambiguous key).
BatchProgress = Callable[[int, float, "RunResult"], None]

_T = TypeVar("_T")


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


def execute_single_config(
    backend: "ExecutionBackend",
    bench_ids: Sequence[str],
    cfg: "RunConfig",
    on_result: ProgressCallback | None = None,
) -> "list[RunResult]":
    """Adapt a single-config id list onto ``execute_batch``.

    The id-keyed :data:`ProgressCallback` is safe here because a
    single-config batch cannot repeat a bench id meaningfully.
    """
    ids = list(bench_ids)
    wrapped: BatchProgress | None = None
    if on_result is not None:
        wrapped = lambda i, secs, res: on_result(ids[i], secs, res)
    return backend.execute_batch([(bid, cfg) for bid in ids], wrapped)


@runtime_checkable
class ExecutionBackend(Protocol):
    """Executes a batch of benchmark runs.

    ``plan``/``plan_batch`` declare ownership: the ordered subset of a
    batch this backend is responsible for (sharded backends take their
    slice; most backends own everything).  The orchestrator plans on the
    *full* deduplicated batch — before cache filtering — so a shard
    partition never shifts with cache contents; ``execute``/
    ``execute_batch`` then run exactly the items they are given.

    Implementations must preserve input order in the returned list,
    invoke the completion callback exactly once per finished item, and
    must derive all run state from the work item alone — no process
    state may leak into results.
    """

    #: Short name used by the CLI (``--backend``) and the registry.
    name: str

    def plan(self, bench_ids: Sequence[str]) -> list[str]:
        """The ordered subset of *bench_ids* this backend owns."""
        ...

    def plan_batch(self, items: Sequence[_T]) -> list[_T]:
        """The ordered subset of a work-item batch this backend owns.

        Generic over the item type: planning only ever selects and
        orders, so callers may pass richer point objects and get the
        same objects back.
        """
        ...

    def execute(
        self,
        bench_ids: Sequence[str],
        cfg: "RunConfig",
        on_result: ProgressCallback | None = None,
    ) -> "list[RunResult]":
        """Run every id in *bench_ids* under one config, in id order."""
        ...

    def execute_batch(
        self,
        items: "Sequence[tuple[str, RunConfig]]",
        on_result: BatchProgress | None = None,
    ) -> "list[RunResult]":
        """Run every ``(bench_id, config)`` item, in submission order."""
        ...


@runtime_checkable
class StreamingBackend(ExecutionBackend, Protocol):
    """A backend that can consume its batch lazily (optional capability).

    ``execute_stream`` accepts an *iterable* of work items and may begin
    executing early items while the iterable is still producing later
    ones — the hook :func:`~repro.core.runner.execute_with_cache` uses
    to overlap per-unit cache lookups with in-flight simulation.  The
    ``on_result`` index is the item's *consumption* order (the position
    at which the backend pulled it from the iterable), results come back
    in that same order, and — unlike the batch methods — ``on_result``
    may be invoked concurrently with the calling thread, so shared
    callbacks must synchronise.

    ``collect: bool = True`` is part of the protocol: with
    ``collect=False`` the backend must not retain any result past its
    ``on_result`` call and returns an empty list, so a streaming
    *reduction* (fleet-scale aggregation) runs in O(window) memory no
    matter how many units pass through.  Callers pass it unconditionally.
    """

    def execute_stream(
        self,
        items: "Iterable[tuple[str, RunConfig]]",
        on_result: BatchProgress | None = None,
        collect: bool = True,
    ) -> "list[RunResult]":
        """Run every streamed item, results in consumption order."""
        ...
