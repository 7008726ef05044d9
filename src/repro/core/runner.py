"""The suite runner: boots a fresh system per benchmark, opens the
measurement window, and snapshots results.

Methodology mirrors the paper: the stack boots and settles, the profiler
resets, then the workload launches *inside* the window (so the launch-time
``app_process`` and install-time ``dexopt``/``id.defcontainer`` references
are visible, as they are in Figures 3/4).

Execution is split in two layers: :func:`execute_one` is a pure, picklable
top-level function mapping ``(bench_id, config)`` to a :class:`RunResult`
(every bit of run state — seed, JIT flag, calibration override — travels
inside the config, so workers in other processes reproduce runs exactly),
and :class:`SuiteRunner` orchestrates batches: dedup, sharding, cache
lookups, and delegation to a pluggable
:class:`~repro.core.backends.ExecutionBackend`.

This module is orchestration only and does not import the simulator;
the simulation half lives in :mod:`repro.core.execute`, loaded when the
first unit actually has to run (see :func:`execute_with_cache`).
"""

from __future__ import annotations

import threading
import warnings
import zlib
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

from repro.calibration import Calibration, profile_cpu_count, use_calibration
from repro.core.backends.base import shortfall_error
from repro.core.results import ResultCache, RunResult, SuiteResult
from repro.core.suite import benchmarks, get_benchmark
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.sim.ticks import millis, seconds

if TYPE_CHECKING:
    from repro.core.backends import ExecutionBackend, ProgressCallback

_T = TypeVar("_T")


@dataclass(frozen=True)
class RunConfig:
    """Knobs for one benchmark execution.

    Fully serialisable (pickle for worker processes, JSON dict for cache
    keys): a config plus a bench id determines a run completely.
    """

    #: Measurement window length.
    duration_ticks: int = seconds(4)
    #: Boot settle time before the window opens.
    settle_ticks: int = millis(400)
    #: Base RNG seed (combined with the bench id for independence).
    seed: int = 1234
    #: Dalvik trace JIT on/off (ablation knob).
    jit_enabled: bool = True
    #: Optional calibration override (ablation knob).
    calibration: Calibration | None = None
    #: Simulated cores (the SMP dimension).
    cpus: int = 1
    #: big.LITTLE core profile (e.g. ``"2+2"``); selects asymmetric core
    #: speeds and the CFS vruntime scheduler.  ``None`` keeps the
    #: symmetric round-robin reproducibility path.
    cpu_profile: str | None = None
    #: Deterministic fault-injection plan (the dependability knob).
    #: ``None`` — the default — injects nothing and is omitted from the
    #: JSON form, so healthy configs keep their pre-fault cache keys.
    faults: FaultPlan | None = None

    def scaled(self, factor: float) -> "RunConfig":
        """A config with the window scaled by *factor*.

        Clamped to at least one tick: a tiny factor must shrink the
        window, never truncate it to a degenerate zero-tick run.
        """
        return replace(
            self, duration_ticks=max(1, int(self.duration_ticks * factor))
        )

    def to_json_dict(self) -> dict:
        """Plain-JSON representation (stable key order via dataclass order;
        ``asdict`` recurses into the nested calibration).

        ``cpus`` is omitted at its default of 1 so single-core configs
        keep the exact JSON — and therefore the exact cache keys — they
        had before the SMP dimension existed; ``cpu_profile`` is omitted
        at its default of None for the same reason (symmetric configs
        keep their pre-big.LITTLE keys).
        """
        raw = asdict(self)
        if self.cpus == 1:
            del raw["cpus"]
        if self.cpu_profile is None:
            del raw["cpu_profile"]
        if self.faults is None:
            del raw["faults"]
        return raw

    @classmethod
    def from_json_dict(cls, raw: dict) -> "RunConfig":
        """Inverse of :meth:`to_json_dict`.

        Validates the knobs a config deserialised from external JSON
        could smuggle in: a zero/negative measurement window, a negative
        settle, or a core count below one.
        """
        raw = dict(raw)
        cal = raw.pop("calibration", None)
        faults = raw.pop("faults", None)
        try:
            cfg = cls(
                calibration=Calibration(**cal) if cal else None,
                faults=FaultPlan.from_json_dict(faults) if faults else None,
                **raw,
            )
        except TypeError:
            # cls(**raw) raises a bare TypeError on keys no field matches;
            # name the offenders instead of leaking the constructor error.
            unknown = sorted(
                set(raw) - {f.name for f in cls.__dataclass_fields__.values()}
            )
            if unknown:
                raise ConfigError(
                    f"unknown config key(s) in JSON: {', '.join(unknown)}"
                ) from None
            raise
        if cfg.duration_ticks < 1:
            raise ConfigError(
                f"duration_ticks must be >= 1, got {cfg.duration_ticks}"
            )
        if cfg.settle_ticks < 0:
            raise ConfigError(
                f"settle_ticks must be >= 0, got {cfg.settle_ticks}"
            )
        if cfg.cpus < 1:
            raise ConfigError(f"cpus must be >= 1, got {cfg.cpus}")
        if cfg.cpu_profile is not None:
            count = profile_cpu_count(cfg.cpu_profile)  # parse-validates
            if count != cfg.cpus:
                raise ConfigError(
                    f"cpu_profile {cfg.cpu_profile!r} describes {count} "
                    f"cores but cpus={cfg.cpus}"
                )
        return cfg


#: A fast configuration for tests.
QUICK_CONFIG = RunConfig(duration_ticks=seconds(1), settle_ticks=millis(200))


def bench_seed(bench_id: str, cfg: RunConfig) -> int:
    """The per-benchmark RNG seed (base seed mixed with the id)."""
    return (cfg.seed * 2_654_435_761 + zlib.crc32(bench_id.encode())) & 0x7FFF_FFFF


def execute_one(bench_id: str, cfg: RunConfig) -> RunResult:
    """Execute one benchmark on a fresh system.

    Top-level and picklable so process-pool backends can ship it to
    workers; the calibration override is installed here, inside whichever
    process runs the benchmark, rather than inherited ambiently.  The
    simulator (:mod:`repro.core.execute`) is imported on the first call.
    """
    from repro.core.execute import run_spec

    spec = get_benchmark(bench_id)
    if cfg.calibration is not None:
        with use_calibration(cfg.calibration):
            return run_spec(spec, cfg)
    return run_spec(spec, cfg)


def dedup_ids(ids: Iterable[str]) -> list[str]:
    """Drop duplicate bench ids, preserving first-occurrence order.

    Duplicates used to run twice with the later result silently
    clobbering the earlier in :meth:`SuiteResult.add`; now they warn.
    """
    seen: set[str] = set()
    out: list[str] = []
    dupes: list[str] = []
    for bench_id in ids:
        if bench_id in seen:
            dupes.append(bench_id)
        else:
            seen.add(bench_id)
            out.append(bench_id)
    if dupes:
        warnings.warn(
            f"duplicate benchmark ids dropped: {', '.join(dupes)}",
            RuntimeWarning,
            stacklevel=3,
        )
    return out


def parse_shard(text: str) -> tuple[int, int]:
    """Parse a CLI ``K/N`` shard spec into ``(index, count)``."""
    index_s, sep, count_s = text.partition("/")
    try:
        if not sep:
            raise ValueError(text)
        index, count = int(index_s), int(count_s)
    except ValueError:
        raise ConfigError(
            f"bad shard spec {text!r}: expected K/N, e.g. 1/4"
        ) from None
    if count < 1 or not 1 <= index <= count:
        raise ConfigError(
            f"bad shard spec {text!r}: need 1 <= K <= N with N >= 1"
        )
    return index, count


def shard_ids(ids: Sequence[_T], index: int, count: int) -> tuple[_T, ...]:
    """The ordered slice of *ids* owned by shard *index* of *count* (1-based).

    The single source of truth for the partition: round-robin by
    position, so shards stay balanced even when the suite is sorted by
    cost-correlated id order, and the union of shards 1..n is exactly
    the input (order preserved within each shard).  Generic over the
    element type: bench ids, sweep points and fleet units partition
    through this one function.  Runners apply it to the full
    deduplicated plan before any cache probe, so a warm cache never
    shifts a partition.
    """
    if count < 1 or not 1 <= index <= count:
        raise ConfigError(f"bad shard {index}/{count}: need 1 <= K <= N")
    return tuple(ids[index - 1 :: count])


def owned_by(
    plan: Sequence[_T], shard: "tuple[int, int] | None"
) -> list[_T]:
    """The part of a full *plan* this run owns: all of it, or one shard."""
    return list(plan if shard is None else shard_ids(plan, *shard))


class Reducer:
    """Consumes completed runs as they arrive off the execution stream.

    The aggregation half of :func:`execute_with_cache`: ``consume`` is
    invoked once per unit — cache hits and fresh completions alike, in
    arrival order, serialised under the orchestration lock — and
    ``finish`` returns whatever the reduction produced.  A reducer that
    only keeps summaries (see :class:`~repro.core.stats.SketchSet`)
    gives the whole pipeline O(metrics) aggregation memory; the
    materialising :class:`~repro.core.sweep.SweepResult` path is just
    another reducer.
    """

    def consume(self, unit: object, run: RunResult) -> None:
        raise NotImplementedError

    def finish(self) -> object:
        raise NotImplementedError


def _load_simulator() -> None:
    """Import the simulation half of the runner (a no-op once loaded)."""
    import repro.core.execute  # noqa: F401


def execute_with_cache(
    backend: "ExecutionBackend",
    cache: ResultCache | None,
    items: "Sequence[tuple[str, RunConfig]]",
    labels: Sequence[str],
    units: Sequence[object],
    progress: "Callable[[object, float | None, RunResult], None] | None" = None,
    reducer: Reducer | None = None,
    retain_results: bool = True,
) -> "list[RunResult] | None":
    """Run a planned batch through *cache* then *backend*.

    The one cache-aware batch orchestration the suite, sweep and fleet
    runners all use: per-item cache lookup (hits reported through
    *progress* with ``elapsed=None``), misses executed with completed
    runs stored back, lost results raised as a
    :class:`~repro.core.backends.BackendError` naming the matching
    *labels*, and hit/miss counters flushed even on failure.  *units*
    are what *progress* and *reducer* receive for each item (bench ids
    for suites, :class:`~repro.core.sweep.SweepPoint` objects for
    sweeps, fleet work units).  Returns one result per item, in item
    order — unless *retain_results* is off, in which case results are
    handed to the *reducer*/*progress* callbacks as they arrive and
    **never retained** here (the streaming-reduction path: aggregation
    memory stays O(metrics) however large the batch) and the return
    value is ``None``.

    The backend is fed lazily: the cache probe for each item happens as
    the backend pulls it, so lookups for later units overlap
    simulations already in flight, and cache writes run inside the
    backend's completion handling (off the critical path for the pool).
    Completion callbacks may be concurrent with the probing thread, so
    result recording, *reducer* consumption and *progress* invocations
    are serialised under a lock — results stay a pure function of
    ``(bench_id, config)`` whatever the completion order.

    The simulator is imported here, in the calling process, just before
    the first miss is handed to the backend: pool workers fork after it
    and inherit it rather than each importing it, and a batch served
    wholly from the cache never loads it.
    """
    results: "list[RunResult | None] | None" = (
        [None] * len(items) if retain_results else None
    )
    done = bytearray(len(items))
    pending: list[int] = []
    lock = threading.Lock()

    def record(index: int, elapsed: "float | None", run: RunResult) -> None:
        """Account one completed unit (caller holds the lock)."""
        done[index] = 1
        if results is not None:
            results[index] = run
        if reducer is not None:
            reducer.consume(units[index], run)
        if progress is not None:
            progress(units[index], elapsed, run)

    def misses():
        """Probe lazily, yielding only the items the backend must run."""
        for index, (bench_id, cfg) in enumerate(items):
            hit = cache.get(bench_id, cfg) if cache is not None else None
            if hit is not None:
                with lock:
                    record(index, None, hit)
                continue
            pending.append(index)
            _load_simulator()
            yield bench_id, cfg

    def on_result(stream_index: int, elapsed: float, run: RunResult) -> None:
        index = pending[stream_index]
        # The cache write happens outside the lock: each key is written
        # at most once per batch, so puts only ever race the probes of
        # *other* keys, and keeping file I/O out of the critical section
        # is the point of the overlapped path.
        if cache is not None:
            bench_id, cfg = items[index]
            cache.put(bench_id, cfg, run)
        with lock:
            record(index, elapsed, run)

    try:
        backend.execute_stream(misses(), on_result)
        missing = [labels[index] for index in pending if not done[index]]
        if missing:
            raise shortfall_error(backend, missing, len(pending))
    finally:
        # Persist hit/miss counters even when the backend fails: the
        # hits already served this session happened either way.
        if cache is not None:
            cache.flush_stats()
    return results


class SuiteRunner:
    """Runs benchmarks and collects results.

    Execution is delegated to a pluggable *backend* (serial by default);
    an optional *cache* short-circuits runs whose ``(bench_id, config,
    version)`` key already has a stored result, and an optional *shard*
    ``(k, n)`` restricts every batch to the k-th of n deterministic
    slices (see :func:`shard_ids`).
    """

    def __init__(
        self,
        config: RunConfig | None = None,
        backend: "ExecutionBackend | None" = None,
        cache: ResultCache | None = None,
        shard: "tuple[int, int] | None" = None,
    ) -> None:
        from repro.core.backends import SerialBackend

        self.config = config if config is not None else RunConfig()
        self.backend = backend if backend is not None else SerialBackend()
        self.cache = cache
        self.shard = shard

    # ------------------------------------------------------------------

    def run(self, bench_id: str, config: RunConfig | None = None) -> RunResult:
        """Execute one benchmark on a fresh system."""
        return execute_one(bench_id, config if config is not None else self.config)

    def run_suite(
        self,
        ids: Iterable[str] | None = None,
        config: RunConfig | None = None,
        progress: "ProgressCallback | None" = None,
    ) -> SuiteResult:
        """Execute a set of benchmarks (default: the whole suite).

        Cache hits are reported through *progress* with ``elapsed=None``
        (no simulation happened — distinct from a genuinely instantaneous
        run); misses go to the backend and are stored back on
        completion.
        """
        cfg = config if config is not None else self.config
        # Shard the full deduplicated batch, then filter by cache: a
        # partition must never depend on which results are cached.
        wanted = owned_by(
            dedup_ids(
                spec.bench_id
                for spec in benchmarks(tuple(ids) if ids is not None else None)
            ),
            self.shard,
        )

        results = execute_with_cache(
            self.backend,
            self.cache,
            [(bench_id, cfg) for bench_id in wanted],
            labels=wanted,
            units=wanted,
            progress=progress,
        )

        out = SuiteResult()
        for result in results:
            out.add(result)
        return out
