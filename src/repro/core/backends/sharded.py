"""Deterministic shard-k-of-n execution for CI / fleet splits.

``shard_ids`` is the single source of truth for the partition: round-robin
by position, so shards stay balanced even when the suite is sorted by
cost-correlated id order, and the union of shards 1..n is exactly the
input (order preserved within each shard).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence, TypeVar

from repro.core.backends.base import (
    BackendError,
    BatchProgress,
    ExecutionBackend,
    ProgressCallback,
)
from repro.core.backends.serial import SerialBackend

if TYPE_CHECKING:
    from repro.core.results import RunResult
    from repro.core.runner import RunConfig

_T = TypeVar("_T")


def parse_shard(text: str) -> tuple[int, int]:
    """Parse a CLI ``K/N`` shard spec into ``(index, count)``."""
    index_s, sep, count_s = text.partition("/")
    try:
        if not sep:
            raise ValueError(text)
        index, count = int(index_s), int(count_s)
    except ValueError:
        raise BackendError(
            f"bad shard spec {text!r}: expected K/N, e.g. 1/4"
        ) from None
    if count < 1 or not 1 <= index <= count:
        raise BackendError(
            f"bad shard spec {text!r}: need 1 <= K <= N with N >= 1"
        )
    return index, count


def shard_ids(ids: Sequence[_T], index: int, count: int) -> tuple[_T, ...]:
    """The ordered slice of *ids* owned by shard *index* of *count* (1-based).

    Generic over the element type: bench ids and sweep points partition
    through this one function, so the round-robin scheme can never
    diverge between the two.
    """
    if count < 1 or not 1 <= index <= count:
        raise BackendError(f"bad shard {index}/{count}: need 1 <= K <= N")
    return tuple(ids[index - 1 :: count])


class ShardedBackend:
    """Restricts execution to one deterministic shard of the batch.

    Wraps an inner backend (serial by default, or a process pool), so a
    CI fleet can split the suite as ``--shard 1/4 .. --shard 4/4`` and
    the concatenation of shard outputs covers every benchmark exactly
    once.

    Ownership is decided in :meth:`plan`, which the orchestrator calls
    on the full batch *before* cache filtering — a warm cache must not
    shift the partition, or concurrent shards could collectively skip a
    benchmark.  :meth:`execute` runs exactly what it is given.
    """

    name = "sharded"

    def __init__(
        self, index: int, count: int, inner: ExecutionBackend | None = None
    ) -> None:
        if count < 1 or not 1 <= index <= count:
            raise BackendError(f"bad shard {index}/{count}: need 1 <= K <= N")
        self.index = index
        self.count = count
        self.inner = inner if inner is not None else SerialBackend()

    @property
    def executed(self) -> list[str]:
        """Bench ids the inner backend actually simulated."""
        return self.inner.executed

    def plan(self, bench_ids: Sequence[str]) -> list[str]:
        return list(shard_ids(tuple(bench_ids), self.index, self.count))

    def plan_batch(self, items: Sequence[_T]) -> list[_T]:
        return list(shard_ids(tuple(items), self.index, self.count))

    def execute(
        self,
        bench_ids: Sequence[str],
        cfg: "RunConfig",
        on_result: ProgressCallback | None = None,
    ) -> "list[RunResult]":
        return self.inner.execute(bench_ids, cfg, on_result)

    def execute_batch(
        self,
        items: "Sequence[tuple[str, RunConfig]]",
        on_result: BatchProgress | None = None,
    ) -> "list[RunResult]":
        return self.inner.execute_batch(items, on_result)

    def execute_stream(
        self,
        items: "Iterable[tuple[str, RunConfig]]",
        on_result: BatchProgress | None = None,
        collect: bool = True,
    ) -> "list[RunResult]":
        """Stream through the inner backend when it can, else materialise.

        Sharding itself happened in :meth:`plan_batch` — by the time a
        stream reaches execution, the items are already this shard's —
        so streaming is purely the inner backend's concern and
        ``collect`` is forwarded to it.  A batch-only inner backend
        materialises regardless (its results list exists either way),
        and the no-collect contract is honoured by returning none of
        them.
        """
        inner_stream = getattr(self.inner, "execute_stream", None)
        if inner_stream is not None:
            return inner_stream(items, on_result, collect=collect)
        results = self.inner.execute_batch(list(items), on_result)
        return results if collect else []
