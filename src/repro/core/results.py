"""Run results: the serialisable output of one benchmark execution.

A :class:`RunResult` snapshots the profiler's counters plus process/thread
census data; a :class:`SuiteResult` collects one per benchmark and feeds
the analysis layer.  Both round-trip through JSON so results can be cached
("plug-and-play" artifacts, standing in for the paper's prepackaged VMs).
:class:`ResultCache` makes that caching automatic: a content-addressed
directory of completed runs keyed by (bench id, config, package version),
so regenerating figures/tables/claims never re-simulates a run it has
already seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import time
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.errors import AnalysisError

if TYPE_CHECKING:
    from repro.core.runner import RunConfig
    from repro.sim.memprofiler import MemProfiler


def _encode_pairs(d: dict[tuple[str, str], int]) -> dict[str, int]:
    return {f"{a}\x00{b}": v for (a, b), v in d.items()}


def _decode_pairs(d: dict[str, int]) -> dict[tuple[str, str], int]:
    out: dict[tuple[str, str], int] = {}
    for key, v in d.items():
        a, _, b = key.partition("\x00")
        out[(a, b)] = v
    return out


def _encode_cpus(d: dict[int, int]) -> dict[str, int]:
    """JSON object keys must be strings; CPU ids round-trip as decimals."""
    return {str(cpu_id): v for cpu_id, v in d.items()}


def _decode_cpus(d: dict[str, int]) -> dict[int, int]:
    return {int(cpu_id): v for cpu_id, v in d.items()}


def write_atomic(path: str, data: "str | bytes") -> None:
    """Replace *path* with *data* (text is UTF-8 encoded), all or nothing.

    Writes ``<path>.tmp.<pid>`` and renames it over *path*, so an
    exception, Ctrl-C or a full disk mid-write leaves the previous file
    intact; the tmp file is unlinked before the error propagates (its
    pid is this live process, so no stale-tmp sweep would reap it).
    Threads of one process share that tmp name: concurrent writers of
    one *path* in one process must serialise.
    """
    binary = isinstance(data, bytes)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb" if binary else "w",
                  encoding=None if binary else "utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


@dataclass
class RunResult:
    """Everything measured during one benchmark's window."""

    bench_id: str
    benchmark_comm: str
    duration_ticks: int
    seed: int
    instr_by_region: dict[str, int] = field(default_factory=dict)
    data_by_region: dict[str, int] = field(default_factory=dict)
    instr_by_proc: dict[str, int] = field(default_factory=dict)
    data_by_proc: dict[str, int] = field(default_factory=dict)
    refs_by_thread: dict[tuple[str, str], int] = field(default_factory=dict)
    instr_by_proc_region: dict[tuple[str, str], int] = field(default_factory=dict)
    data_by_proc_region: dict[tuple[str, str], int] = field(default_factory=dict)
    #: Census data from the kernel at window close.
    live_processes: int = 0
    threads_spawned_total: int = 0
    meta: dict = field(default_factory=dict)
    #: SMP axes, populated only for ``cpus > 1`` runs (single-core
    #: results keep the exact shape — and bytes — they had before the
    #: SMP dimension existed).
    cpus: int = 1
    instr_by_cpu: dict[int, int] = field(default_factory=dict)
    data_by_cpu: dict[int, int] = field(default_factory=dict)
    #: CPU id -> ticks that CPU spent retiring blocks in the window.
    busy_ticks_by_cpu: dict[int, int] = field(default_factory=dict)
    #: Ticks during which at least one CPU was busy (union of busy
    #: intervals) — the denominator of the TLP metric.
    any_busy_ticks: int = 0
    #: big.LITTLE profile the run executed under (None = symmetric).
    cpu_profile: str | None = None
    #: Fault-injection counters, populated only when the run executed
    #: under a fault plan (empty dict = fault-free, serialised away).
    fault_counters: dict = field(default_factory=dict)

    # ------------------------------------------------------------------

    @classmethod
    def from_profiler(
        cls,
        bench_id: str,
        benchmark_comm: str,
        profiler: "MemProfiler",
        duration_ticks: int,
        seed: int,
        live_processes: int,
        threads_spawned_total: int,
        meta: dict | None = None,
        cpus: int = 1,
        instr_by_cpu: dict[int, int] | None = None,
        data_by_cpu: dict[int, int] | None = None,
        busy_ticks_by_cpu: dict[int, int] | None = None,
        any_busy_ticks: int = 0,
        cpu_profile: str | None = None,
        fault_counters: dict | None = None,
    ) -> "RunResult":
        """Snapshot the profiler into a result."""
        return cls(
            bench_id=bench_id,
            benchmark_comm=benchmark_comm,
            duration_ticks=duration_ticks,
            seed=seed,
            instr_by_region=dict(profiler.instr_by_region),
            data_by_region=dict(profiler.data_by_region),
            instr_by_proc=dict(profiler.instr_by_proc),
            data_by_proc=dict(profiler.data_by_proc),
            refs_by_thread=dict(profiler.refs_by_thread),
            instr_by_proc_region=dict(profiler.instr_by_proc_region),
            data_by_proc_region=dict(profiler.data_by_proc_region),
            live_processes=live_processes,
            threads_spawned_total=threads_spawned_total,
            meta=dict(meta or {}),
            cpus=cpus,
            instr_by_cpu=dict(instr_by_cpu or {}),
            data_by_cpu=dict(data_by_cpu or {}),
            busy_ticks_by_cpu=dict(busy_ticks_by_cpu or {}),
            any_busy_ticks=any_busy_ticks,
            cpu_profile=cpu_profile,
            fault_counters=dict(fault_counters or {}),
        )

    # ------------------------------------------------------------------
    # Derived metrics

    @property
    def total_instr(self) -> int:
        """Instruction reads in the window."""
        return sum(self.instr_by_region.values())

    @property
    def total_data(self) -> int:
        """Data references in the window."""
        return sum(self.data_by_region.values())

    @property
    def total_refs(self) -> int:
        """All memory references in the window."""
        return self.total_instr + self.total_data

    def code_region_count(self) -> int:
        """Distinct regions serving instruction fetches."""
        return len(self.instr_by_region)

    def data_region_count(self) -> int:
        """Distinct regions serving data references."""
        return len(self.data_by_region)

    def process_count(self) -> int:
        """Distinct process comms that issued references."""
        return len(set(self.instr_by_proc) | set(self.data_by_proc))

    def thread_count(self) -> int:
        """Distinct (process, thread) pairs that issued references."""
        return len(self.refs_by_thread)

    def benchmark_share_instr(self) -> float:
        """Fraction of instruction reads from the benchmark's own process."""
        total = self.total_instr
        return self.instr_by_proc.get(self.benchmark_comm, 0) / total if total else 0.0

    def proc_share(self, comm: str, instr: bool = True) -> float:
        """One process's share of instruction (or data) references."""
        table = self.instr_by_proc if instr else self.data_by_proc
        total = sum(table.values())
        return table.get(comm, 0) / total if total else 0.0

    def region_share(self, label: str, instr: bool = True) -> float:
        """One region's share of instruction (or data) references."""
        table = self.instr_by_region if instr else self.data_by_region
        total = sum(table.values())
        return table.get(label, 0) / total if total else 0.0

    # ------------------------------------------------------------------
    # SMP metrics (meaningful for cpus > 1; single-core runs degenerate
    # to one implicit CPU owning everything)

    def refs_by_cpu(self) -> dict[int, int]:
        """CPU id -> instruction + data references retired there.

        A single-core run (no per-CPU tables) reports everything on
        CPU 0, so per-core analysis renders uniformly across core counts.
        """
        if not self.instr_by_cpu and not self.data_by_cpu:
            return {0: self.total_refs}
        out = dict(self.instr_by_cpu)
        for cpu_id, data in self.data_by_cpu.items():
            out[cpu_id] = out.get(cpu_id, 0) + data
        return out

    def tlp(self) -> float:
        """Thread-level parallelism: average CPUs busy while any is.

        ``sum(per-CPU busy ticks) / union-of-busy-intervals`` — 1.0 for
        a perfectly serial run, approaching the core count when every
        core stays busy together.  Single-core runs report 1.0 (when
        anything ran at all).
        """
        if not self.busy_ticks_by_cpu:
            return 1.0 if self.total_refs else 0.0
        if self.any_busy_ticks <= 0:
            return 0.0
        return sum(self.busy_ticks_by_cpu.values()) / self.any_busy_ticks

    def cpu_busy_share(self, cpu_id: int) -> float:
        """One CPU's share of total busy ticks."""
        total = sum(self.busy_ticks_by_cpu.values())
        return self.busy_ticks_by_cpu.get(cpu_id, 0) / total if total else 0.0

    def big_cpu_ids(self) -> list[int]:
        """CPU ids of the big cores under this run's profile.

        Every CPU counts as big on a symmetric run (no profile), so
        big-share metrics degrade to 1.0 rather than 0/0.
        """
        if self.cpu_profile is None:
            return list(range(self.cpus))
        from repro.calibration import parse_cpu_profile

        return [
            cpu_id
            for cpu_id, spec in enumerate(parse_cpu_profile(self.cpu_profile))
            if spec.is_big
        ]

    def big_refs_share(self) -> float:
        """Fraction of references retired on big cores."""
        refs = self.refs_by_cpu()
        total = sum(refs.values())
        if not total:
            return 0.0
        bigs = set(self.big_cpu_ids())
        return sum(v for cpu_id, v in refs.items() if cpu_id in bigs) / total

    def effective_region_count(
        self, coverage: float = 0.99, instr: bool = True
    ) -> int:
        """Regions needed to cover *coverage* of references.

        SPEC programs have dozens of regions with a trickle of background
        references but only a handful doing real work; this is the metric
        behind the paper's "vast majority from the binary and kernel".
        """
        table = self.instr_by_region if instr else self.data_by_region
        total = sum(table.values())
        if total <= 0:
            return 0
        needed = 0
        accumulated = 0
        for count in sorted(table.values(), reverse=True):
            needed += 1
            accumulated += count
            if accumulated >= coverage * total:
                break
        return needed

    # ------------------------------------------------------------------
    # Serialisation

    def to_json_dict(self) -> dict:
        """Plain-JSON representation.

        The SMP axes are appended only for multi-core runs: a ``cpus=1``
        result serialises to exactly the bytes the pre-SMP engine
        produced, keeping historical suite files, cache entries and the
        cross-backend differential matrix stable.
        """
        out = {
            "bench_id": self.bench_id,
            "benchmark_comm": self.benchmark_comm,
            "duration_ticks": self.duration_ticks,
            "seed": self.seed,
            "instr_by_region": self.instr_by_region,
            "data_by_region": self.data_by_region,
            "instr_by_proc": self.instr_by_proc,
            "data_by_proc": self.data_by_proc,
            "refs_by_thread": _encode_pairs(self.refs_by_thread),
            "instr_by_proc_region": _encode_pairs(self.instr_by_proc_region),
            "data_by_proc_region": _encode_pairs(self.data_by_proc_region),
            "live_processes": self.live_processes,
            "threads_spawned_total": self.threads_spawned_total,
            "meta": self.meta,
        }
        if self.cpus > 1:
            out["cpus"] = self.cpus
            out["instr_by_cpu"] = _encode_cpus(self.instr_by_cpu)
            out["data_by_cpu"] = _encode_cpus(self.data_by_cpu)
            out["busy_ticks_by_cpu"] = _encode_cpus(self.busy_ticks_by_cpu)
            out["any_busy_ticks"] = self.any_busy_ticks
        if self.cpu_profile is not None:
            out["cpu_profile"] = self.cpu_profile
        if self.fault_counters:
            out["faults"] = self.fault_counters
        return out

    @classmethod
    def from_json_dict(cls, raw: dict) -> "RunResult":
        """Inverse of :meth:`to_json_dict`."""
        return cls(
            bench_id=raw["bench_id"],
            benchmark_comm=raw["benchmark_comm"],
            duration_ticks=raw["duration_ticks"],
            seed=raw["seed"],
            instr_by_region=dict(raw["instr_by_region"]),
            data_by_region=dict(raw["data_by_region"]),
            instr_by_proc=dict(raw["instr_by_proc"]),
            data_by_proc=dict(raw["data_by_proc"]),
            refs_by_thread=_decode_pairs(raw["refs_by_thread"]),
            instr_by_proc_region=_decode_pairs(raw["instr_by_proc_region"]),
            data_by_proc_region=_decode_pairs(raw["data_by_proc_region"]),
            live_processes=raw["live_processes"],
            threads_spawned_total=raw["threads_spawned_total"],
            meta=dict(raw.get("meta", {})),
            cpus=raw.get("cpus", 1),
            instr_by_cpu=_decode_cpus(raw.get("instr_by_cpu", {})),
            data_by_cpu=_decode_cpus(raw.get("data_by_cpu", {})),
            busy_ticks_by_cpu=_decode_cpus(raw.get("busy_ticks_by_cpu", {})),
            any_busy_ticks=raw.get("any_busy_ticks", 0),
            cpu_profile=raw.get("cpu_profile"),
            fault_counters=dict(raw.get("faults", {})),
        )


def decode_entry(body: bytes) -> RunResult:
    """The run one stored entry's bytes hold.

    Raises :class:`ValueError`, naming why, for bytes no reader could
    use.  Every reader of entry bytes (:meth:`ResultCache.get`, the
    result-service client) and the service's check on published bodies
    apply this one test, so the service never stores an entry that a
    reader would discard.
    """
    try:
        raw = json.loads(body.decode("utf-8"))
    except ValueError:
        raise ValueError("not valid JSON") from None
    try:
        return RunResult.from_json_dict(raw)
    except (KeyError, TypeError, ValueError, AttributeError):
        raise ValueError("not a RunResult payload") from None


@dataclass
class SuiteResult:
    """Results for a set of benchmarks, keyed by bench id."""

    runs: dict[str, RunResult] = field(default_factory=dict)

    def add(self, result: RunResult) -> None:
        """Insert one run."""
        self.runs[result.bench_id] = result

    def get(self, bench_id: str) -> RunResult:
        """Fetch one run or raise."""
        try:
            return self.runs[bench_id]
        except KeyError:
            raise AnalysisError(f"no result for benchmark {bench_id!r}") from None

    def ids(self) -> list[str]:
        """Bench ids present, insertion-ordered."""
        return list(self.runs)

    def subset(self, ids: Iterable[str]) -> "SuiteResult":
        """A SuiteResult restricted to *ids* (missing ids are errors)."""
        out = SuiteResult()
        for bench_id in ids:
            out.add(self.get(bench_id))
        return out

    # ------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Write all runs to a JSON file (atomically: see
        :func:`write_atomic`)."""
        payload = {bid: run.to_json_dict() for bid, run in self.runs.items()}
        write_atomic(path, json.dumps(payload))

    @classmethod
    def load(cls, path: str) -> "SuiteResult":
        """Read runs back from :meth:`save` output."""
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        out = cls()
        for raw in payload.values():
            out.add(RunResult.from_json_dict(raw))
        return out


@dataclass(frozen=True)
class GcReport:
    """What one :meth:`ResultCache.gc` pass evicted and kept."""

    #: Entries removed, and the bytes they occupied.
    removed_entries: int
    removed_bytes: int
    #: Entries surviving the pass, and the bytes they occupy.
    kept_entries: int
    kept_bytes: int


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of one cache directory's health."""

    #: Stored run entries on disk.
    entries: int
    #: Total bytes those entries occupy.
    total_bytes: int
    #: Lifetime hits (persisted across processes plus this session).
    hits: int
    #: Lifetime misses (persisted across processes plus this session).
    misses: int


class ResultCache:
    """Content-addressed store of completed runs.

    The key is a stable hash of (bench id, the config's JSON form, the
    package version): any knob that can change a run's output — window,
    settle, seed, JIT flag, calibration override — changes the key, and
    bumping ``repro.__version__`` invalidates everything at once, since
    a model change can shift results without any config change.

    Opening a cache sweeps up stale ``*.tmp.<pid>`` droppings left by
    writers that were killed mid-:meth:`put` (a tmp file is kept only
    while its writer pid is still alive).  Corrupt entries are deleted
    the moment a read trips over them, so one bad file can never turn
    every future lookup of that key into a silent re-simulation.
    """

    #: Hit/miss counters persisted in the cache directory (underscore
    #: prefix keeps it out of the entry namespace, which is pure hex).
    STATS_FILE = "_stats.json"

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self._flushed_hits = 0
        self._flushed_misses = 0
        #: Entry name -> unix time of this session's latest hit (merged
        #: into the stats file by :meth:`flush_stats`; GC prefers
        #: evicting the least-recently-used entry among equal ages).
        self._session_last_hits: dict[str, float] = {}
        self.sweep_stale_tmp()

    # ------------------------------------------------------------------

    @staticmethod
    def key(bench_id: str, cfg: "RunConfig") -> str:
        """The content hash addressing one run."""
        from repro import __version__

        payload = json.dumps(
            {"bench": bench_id, "config": cfg.to_json_dict(), "version": __version__},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @staticmethod
    def is_key(text: str) -> bool:
        """Whether *text* is an entry key (64 lowercase hex digits)."""
        return _KEY.fullmatch(text) is not None

    def _entry_path(self, key: str) -> str:
        return os.path.join(self.root, key + ".json")

    def _path(self, bench_id: str, cfg: "RunConfig") -> str:
        return self._entry_path(self.key(bench_id, cfg))

    # ------------------------------------------------------------------
    # Raw entry bytes, for stores that move entries without decoding
    # them (the result service)

    def read_entry(self, key: str) -> "bytes | None":
        """The stored bytes of one entry, or ``None`` if there is none."""
        try:
            with open(self._entry_path(key), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return None

    def write_entry(self, key: str, body: bytes) -> None:
        """Store one entry's bytes atomically (:func:`write_atomic`)."""
        write_atomic(self._entry_path(key), body)

    # ------------------------------------------------------------------

    def get(self, bench_id: str, cfg: "RunConfig") -> RunResult | None:
        """The stored run for this key, or ``None`` on a miss.

        A corrupt entry (truncated write, bad JSON, missing fields) is
        deleted — not left in place to shadow the key forever — and
        counted as a miss, so the subsequent :meth:`put` heals the cache.
        """
        key = self.key(bench_id, cfg)
        body = self.read_entry(key)
        if body is None:
            self.misses += 1
            return None
        path = self._entry_path(key)
        try:
            result = decode_entry(body)
        except ValueError as exc:
            self._discard_corrupt(path, str(exc))
            self.misses += 1
            return None
        self.hits += 1
        self._session_last_hits[os.path.basename(path)] = time.time()
        return result

    def put(self, bench_id: str, cfg: "RunConfig", result: RunResult) -> None:
        """Store one completed run (atomically, for concurrent writers).

        A failed write leaves no tmp file behind (:func:`write_atomic`):
        the pid in the tmp name is *this* process, so
        :meth:`sweep_stale_tmp` would rightly refuse to clean it up for
        as long as we live.
        """
        write_atomic(
            self._path(bench_id, cfg), json.dumps(result.to_json_dict())
        )

    def __len__(self) -> int:
        return len(self._entry_names())

    # ------------------------------------------------------------------
    # Hygiene + stats

    def _entry_names(self) -> list[str]:
        """Stored run entries (hex-keyed ``.json`` files only).

        The strict name match matters: :meth:`gc` destructively unlinks
        these, so a foreign ``*.json`` a user parked in the directory
        (``suite --out cache/suite.json``) must never be counted as an
        entry, let alone evicted.
        """
        return [
            name
            for name in os.listdir(self.root)
            if _ENTRY_NAME.fullmatch(name)
        ]

    @staticmethod
    def _discard_corrupt(path: str, why: str) -> None:
        """Unlink one corrupt entry, racing safely with other readers.

        Two readers tripping over the same corrupt entry both race to
        unlink it; whoever loses sees ``FileNotFoundError`` and stays
        silent (the winner already warned) — each reader still counts
        its own miss, and neither ever raises.
        """
        try:
            os.unlink(path)
        except FileNotFoundError:
            return
        except OSError:
            pass
        warnings.warn(
            f"discarded corrupt cache entry {path} ({why})",
            RuntimeWarning,
            stacklevel=4,
        )

    def sweep_stale_tmp(self) -> int:
        """Delete this cache's ``*.json.tmp.<pid>`` files whose writer
        is gone.

        A writer killed between the tmp write and the atomic rename
        leaves its tmp file behind forever; a tmp file whose pid is
        still a live process belongs to an in-flight :meth:`put` and is
        left alone.  Only files matching the cache's own tmp naming
        (hex entry key or the stats file, ``.json.tmp.`` then digits)
        are candidates — anything else in the directory is not ours to
        delete.  Returns the number of files removed.
        """
        removed = 0
        for name in os.listdir(self.root):
            match = _TMP_NAME.fullmatch(name)
            if match is None or _pid_alive(int(match.group(1))):
                continue
            with contextlib.suppress(OSError):
                os.unlink(os.path.join(self.root, name))
                removed += 1
        return removed

    def gc(
        self,
        max_bytes: int | None = None,
        max_age: float | None = None,
        now: float | None = None,
        max_entries: int | None = None,
        dry_run: bool = False,
        lru: bool = False,
    ) -> GcReport:
        """Evict run entries oldest-first until the cache fits the bounds.

        *max_age* (seconds) drops every entry whose modification time is
        older than ``now - max_age``; *max_entries* then evicts
        oldest-first until at most that many survive; *max_bytes* last,
        until the survivors fit the budget.  Eviction order is mtime
        ascending, then — among entries of equal age — least recently
        *used* first (per-entry last-hit timestamps from the stats file,
        never-hit entries oldest of all), then the entry name, so
        repeated passes evict deterministically and a warm entry
        outlives a cold one written in the same batch.  Only run entries
        (hex-keyed ``.json`` files) are candidates: the stats file
        (hit/miss counters survive a GC pass), in-flight tmp files, and
        foreign files parked in the directory are never touched.  An
        entry whose unlink fails is reported as kept, and with every
        bound ``None`` the pass is a no-op report.

        *lru* flips to pure last-hit ordering: eviction ranks entries by
        last-hit timestamp alone (never-hit entries first, then the
        entry name as tie-break), ignoring write age entirely — an
        entry written long ago but hit this morning outlives one written
        yesterday and never read since.  *max_age* still cuts on
        modification time; it bounds staleness of the stored bytes, not
        of their use.

        *dry_run* reports what the same bounds *would* evict without
        unlinking anything — the report reads exactly like a real pass.
        """
        last_hits = self._read_persisted_stats()["last_hit"]
        last_hits.update(self._session_last_hits)
        entries: list[tuple[float, float, str, int]] = []
        for name in self._entry_names():
            try:
                info = os.stat(os.path.join(self.root, name))
            except OSError:
                continue
            entries.append(
                (info.st_mtime, last_hits.get(name, 0.0), name, info.st_size)
            )
        if lru:
            entries.sort(key=lambda e: (e[1], e[2]))
        else:
            entries.sort()
        if now is None:
            now = time.time()

        doomed: list[tuple[float, float, str, int]] = []
        kept = entries
        if max_age is not None:
            cutoff = now - max_age
            doomed = [e for e in kept if e[0] < cutoff]
            kept = [e for e in kept if e[0] >= cutoff]
        if max_entries is not None:
            while len(kept) > max(max_entries, 0):
                doomed.append(kept.pop(0))
        if max_bytes is not None:
            kept_bytes = sum(size for *_, size in kept)
            while kept and kept_bytes > max_bytes:
                oldest = kept.pop(0)
                doomed.append(oldest)
                kept_bytes -= oldest[3]

        removed_entries = removed_bytes = 0
        survivors = list(kept)
        for entry in doomed:
            _, _, name, size = entry
            if not dry_run:
                try:
                    os.unlink(os.path.join(self.root, name))
                except OSError:
                    # Still on disk (permissions, concurrent replace):
                    # report it as kept, so the caller sees the true
                    # directory state.
                    survivors.append(entry)
                    continue
                self._session_last_hits.pop(name, None)
            removed_entries += 1
            removed_bytes += size
        return GcReport(
            removed_entries=removed_entries,
            removed_bytes=removed_bytes,
            kept_entries=len(survivors),
            kept_bytes=sum(size for *_, size in survivors),
        )

    def flush_stats(self) -> None:
        """Merge this session's hit/miss counters and per-entry last-hit
        timestamps into the persisted stats file (atomic replace;
        concurrent writers may undercount, never corrupt).

        The last-hit map is pruned to entries still on disk so the
        stats file cannot grow without bound as runs are evicted."""
        new_hits = self.hits - self._flushed_hits
        new_misses = self.misses - self._flushed_misses
        if not new_hits and not new_misses:
            return
        persisted = self._read_persisted_stats()
        last_hit = persisted["last_hit"]
        last_hit.update(self._session_last_hits)
        present = set(self._entry_names())
        payload = {
            "hits": persisted["hits"] + new_hits,
            "misses": persisted["misses"] + new_misses,
            "last_hit": {
                name: ts for name, ts in last_hit.items() if name in present
            },
        }
        write_atomic(
            os.path.join(self.root, self.STATS_FILE), json.dumps(payload)
        )
        self._flushed_hits = self.hits
        self._flushed_misses = self.misses

    def _read_persisted_stats(self) -> dict:
        path = os.path.join(self.root, self.STATS_FILE)
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
            last_hit = {
                str(name): float(ts)
                for name, ts in raw.get("last_hit", {}).items()
            }
            return {
                "hits": int(raw["hits"]),
                "misses": int(raw["misses"]),
                "last_hit": last_hit,
            }
        except (FileNotFoundError, json.JSONDecodeError, KeyError, TypeError,
                ValueError, AttributeError):
            return {"hits": 0, "misses": 0, "last_hit": {}}

    def stats(self) -> CacheStats:
        """Entries/bytes on disk plus lifetime hit/miss counters."""
        total_bytes = 0
        entries = self._entry_names()
        for name in entries:
            with contextlib.suppress(OSError):
                total_bytes += os.path.getsize(os.path.join(self.root, name))
        persisted = self._read_persisted_stats()
        return CacheStats(
            entries=len(entries),
            total_bytes=total_bytes,
            hits=persisted["hits"] + self.hits - self._flushed_hits,
            misses=persisted["misses"] + self.misses - self._flushed_misses,
        )


#: An entry key: the sha256 hex digest :meth:`ResultCache.key` returns.
_KEY = re.compile(r"[0-9a-f]{64}")

#: A stored run entry this cache owns: a key plus ``.json``.
_ENTRY_NAME = re.compile(_KEY.pattern + r"\.json")

#: In-flight write droppings this cache may own: a hex entry key or the
#: stats file, then ``.json.tmp.<pid>``.
_TMP_NAME = re.compile(rf"(?:{_KEY.pattern}|_stats)\.json\.tmp\.(\d+)")


def _pid_alive(pid: int) -> bool:
    """Whether *pid* names a live process (EPERM counts as alive)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True
