"""Boot snapshots: zygote-style warm templates for the simulator itself.

The paper's central object of study is zygote's fork-from-warm-template
trick — boot the framework once, then stamp out app processes from the
warm image instead of re-initialising everything per app.  This module
applies the same idea to the reproduction: the fully booted
:class:`~repro.sim.system.System` — plus the constructed workload model
and, for Android benchmarks, the installed app — is checkpointed at the
pre-settle point, and later runs whose *boot-relevant* config matches
restore the checkpoint instead of re-simulating boot and install.
Everything up to the checkpoint is a pure function of the template key;
everything after it (settle, measurement window, workload) depends on
the excluded duration/settle knobs and always runs fresh.

Two-level keys
--------------
Templates exist at two levels.  The *level-2* key (:func:`snapshot_key`)
is the full boot-relevant prefix — ``(bench_seed, jit_enabled,
calibration, cpus, cpu_profile)`` plus a format version — and addresses
a complete ``(system, stack, model)`` checkpoint.  ``duration_ticks``
and ``settle_ticks`` are deliberately excluded: the checkpoint precedes
the settle phase, so every duration/settle variant of one boot shares a
template.  The *level-1* key (:func:`level1_key`) drops the seed and
bench identity too, because almost none of the boot graph depends on
them: the only seed-dependent state at the checkpoint is
``system.seed``, the (never yet consumed) ``system.rng``, and
system_server's generated method catalog.  A level-1 template is the
booted ``(system, stack)`` pair captured with those three normalised
out; :func:`apply_seed_delta` folds a concrete ``bench_seed`` back in at
restore time and the workload model is rebuilt from its factory (a pure
function of the seed).  Seed-axis sweeps and ``FleetSpec``'s seed pool
therefore restore from one level-1 blob instead of booting per seed.

Restore mechanics
-----------------
Templates are stored as pickle bytes plus a *shared table*.  When a
template is captured, objects that are immutable after construction —
non-heap :class:`~repro.kernel.vma.VMA`\\ s,
:class:`~repro.libs.object.MappedObject`/:class:`~repro.libs.object.SharedObject`
mappings and :class:`~repro.dalvik.method.JavaMethod` descriptors — are
externalised through the pickler's ``persistent_id`` hook into the table
instead of being serialised.  Restores hand them back by reference, so
every system restored from one template shares those immutable objects
(exactly as fresh boots already share the memoised ``SharedObject``
catalog) and only the mutable remainder — tasks, processes, schedulers,
queues, region state — is reconstructed per run.  That asymmetry is the
speedup: a restore rebuilds roughly a third of the boot object graph.

The mutability audit behind the table is narrow and checked by tests:
``VMA`` fields are written post-construction only by ``brk`` growth
(``VMAKind.HEAP``, excluded from sharing); ``SharedObject.add_symbol``
has no callers after catalog construction; ``JavaMethod`` is frozen.

Store scoping and the disk tier
-------------------------------
The store is enabled explicitly (snapshots are *off* by default) and
always has an in-process memory tier.  Optionally it is backed by a
directory of content-addressed blob files — ``<key>.blob`` (the pickle
bytes) plus a ``<key>.table`` sidecar carrying the shared table and a
sha256 of the blob — shared by every worker process on the host.  Files
are written sidecar-first via ``tmp + os.replace`` so concurrent readers
never observe a torn template, and a load re-hashes the blob against the
sidecar, discarding (and warning about) anything corrupt.  A worker's
miss path is memory → disk (load once, promote to memory) → boot under
a per-key lock file + capture + publish, so each level-1 template is
booted once per host regardless of worker count.  The
``REPRO_SNAPSHOTS`` environment variable carries the enablement to pool
workers: ``"1"`` means memory-only, any other value is the store
directory.  Per-store counter files (``_stats.<token>.json``) make the
accounting exact across processes.  ``RunConfig`` and the result-cache
keys are untouched by any of this: snapshots change how a run reaches
the post-boot state, never what the run computes.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import pickle
import random
import re
import time
import warnings
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Iterator

from repro.core.results import GcReport, _pid_alive

if TYPE_CHECKING:
    from repro.core.runner import RunConfig

#: Bump when the snapshot payload layout changes (invalidates all keys).
SNAPSHOT_VERSION = 1

#: Environment flag exported by :func:`enable_snapshots` so spawned
#: process-pool workers enable their own store on first use.  ``"1"``
#: means memory-only; any other value is the disk-tier directory.
ENV_FLAG = "REPRO_SNAPSHOTS"

#: Seed written into a level-1 template during capture, so the blob is
#: canonical regardless of which seed happened to boot first.
_CANONICAL_SEED = 0

#: How long a worker waits on another worker's boot lock before giving
#: up and booting redundantly (correct either way, just slower).
_LOCK_TIMEOUT = 30.0

_BLOB_SUFFIX = ".blob"
_TABLE_SUFFIX = ".table"
_LOCK_SUFFIX = ".lock"

_STATS_NAME = re.compile(r"_stats\.\d+\.[0-9a-f]{8}\.json$")
_TMP_NAME = re.compile(r"\.tmp\.(\d+)$")

#: Merged counters of dead store sessions (see :func:`_fold_dead_stats`).
#: The name deliberately fails ``_STATS_NAME`` so the base file is never
#: itself treated as a session file.
_STATS_BASE = "_stats.base.json"

#: Integer counters mirrored into the per-store stats file.
_COUNTER_FIELDS = (
    "hits", "misses", "memory_hits", "disk_hits",
    "boots", "publishes", "seed_deltas",
)


def snapshot_key(bench_id: str, cfg: "RunConfig") -> str:
    """The level-2 template key for one run: boot-relevant config prefix.

    Two configs differing only in ``duration_ticks``/``settle_ticks``
    map to the same key and therefore share one boot template.
    """
    from repro.core.runner import bench_seed

    payload = {
        "seed": bench_seed(bench_id, cfg),
        "jit": cfg.jit_enabled,
        "calibration": asdict(cfg.calibration) if cfg.calibration else None,
        "cpus": cfg.cpus,
        "cpu_profile": cfg.cpu_profile,
        "snapshot_version": SNAPSHOT_VERSION,
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: level1_key results memoised on the hashable boot prefix — the key is
#: recomputed for every point of a sweep, and the canonical-JSON walk
#: shows up on the seed-axis fast path.
_LEVEL1_KEYS: dict = {}


def level1_key(cfg: "RunConfig") -> str:
    """The level-1 template key: the seed-independent boot prefix.

    Every benchmark and every seed of one ``(jit, calibration, cpus,
    cpu_profile)`` configuration shares a single level-1 template; the
    seed (and the workload model built from it) is folded back in by
    :func:`apply_seed_delta` at restore time.
    """
    memo = (cfg.jit_enabled, cfg.calibration, cfg.cpus, cfg.cpu_profile)
    key = _LEVEL1_KEYS.get(memo)
    if key is None:
        payload = {
            "level": 1,
            "jit": cfg.jit_enabled,
            "calibration": asdict(cfg.calibration) if cfg.calibration else None,
            "cpus": cfg.cpus,
            "cpu_profile": cfg.cpu_profile,
            "snapshot_version": SNAPSHOT_VERSION,
        }
        text = json.dumps(payload, sort_keys=True)
        key = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if len(_LEVEL1_KEYS) < 4096:
            _LEVEL1_KEYS[memo] = key
    return key


def apply_seed_delta(system, stack, seed: int) -> None:
    """Fold *seed* into a level-1 restored ``(system, stack)`` pair.

    Reconstructs exactly the seed-dependent state a fresh boot at *seed*
    would hold at the checkpoint: ``system.seed``, the untouched
    ``system.rng``, and system_server's generated method catalog (whose
    generator state is itself a pure function of the seed — no
    ``pick_batch`` draw happens before the engine first runs).
    """
    from repro.android.system_server import server_method_table

    system.seed = seed
    system.rng = random.Random(seed)
    stack.system_server.methods = server_method_table(seed)


def _shareable(obj: object) -> bool:
    """Whether *obj* is immutable post-construction and safe to hand to
    every system restored from the template (see module docstring)."""
    from repro.dalvik.method import JavaMethod
    from repro.kernel.vma import VMA, VMAKind
    from repro.libs.object import MappedObject, SharedObject

    t = obj.__class__
    if t is VMA:
        # brk() grows the [heap] VMA in place; every other VMA field
        # write happens at construction time.  Heap VMAs stay private.
        return obj.kind is not VMAKind.HEAP  # type: ignore[attr-defined]
    return t is MappedObject or t is SharedObject or t is JavaMethod


@dataclass(frozen=True)
class SnapshotStats:
    """Counters describing one store's session."""

    templates: int
    hits: int
    misses: int
    blob_bytes: int
    shared_objects: int
    capture_ms: float
    restore_ms: float
    level1_templates: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    boots: int = 0
    publishes: int = 0
    seed_deltas: int = 0


class _Entry:
    """One captured template: pickle bytes + the shared-object table."""

    __slots__ = ("blob", "table")

    def __init__(self, blob: bytes, table: list) -> None:
        self.blob = blob
        self.table = table


class _DeltaEntry:
    """A level-2 template recorded as a seed delta over a level-1 blob.

    Derived graphs are cheap to rematerialize (restore the level-1
    template, apply the seed, rebuild the model), so recording the
    recipe instead of a second full blob keeps seed-axis sweeps from
    paying a serialise per seed.
    """

    __slots__ = ("level1_key", "seed", "bench_id")

    def __init__(self, level1_key: str, seed: int, bench_id: str) -> None:
        self.level1_key = level1_key
        self.seed = seed
        self.bench_id = bench_id


class _NullLock:
    def __enter__(self) -> "_NullLock":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


class _BootLock:
    """A per-key lock file serialising boot+capture across processes.

    ``O_CREAT | O_EXCL`` with the holder's pid inside; waiters poll,
    steal locks whose holder died, and fall through (booting redundantly
    but correctly) after :data:`_LOCK_TIMEOUT`.
    """

    def __init__(self, root: str, key: str) -> None:
        self._path = os.path.join(root, key + _LOCK_SUFFIX)
        self._owned = False

    def __enter__(self) -> "_BootLock":
        deadline = time.monotonic() + _LOCK_TIMEOUT
        while True:
            try:
                fd = os.open(self._path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            except OSError:
                return self  # unwritable store dir: proceed lockless
            else:
                with contextlib.suppress(OSError):
                    os.write(fd, str(os.getpid()).encode("ascii"))
                os.close(fd)
                self._owned = True
                return self
            try:
                with open(self._path, encoding="ascii") as fh:
                    holder = int(fh.read().strip() or "0")
            except (OSError, ValueError):
                continue  # released (or mid-write): retry immediately
            if holder and not _pid_alive(holder):
                with contextlib.suppress(OSError):
                    os.unlink(self._path)
                continue
            if time.monotonic() > deadline:
                return self
            time.sleep(0.002)

    def __exit__(self, *exc: object) -> None:
        if self._owned:
            with contextlib.suppress(OSError):
                os.unlink(self._path)


class SnapshotStore:
    """Boot-template store: an in-process memory tier, optionally backed
    by a shared on-disk blob directory (*root*)."""

    def __init__(self, root: "str | None" = None) -> None:
        self.root = root
        self._entries: "dict[str, _Entry | _DeltaEntry]" = {}
        self._level1: dict[str, _Entry] = {}
        self.hits = 0
        self.misses = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.boots = 0
        self.publishes = 0
        self.seed_deltas = 0
        self.capture_ms = 0.0
        self.restore_ms = 0.0
        self._token = f"{os.getpid()}.{os.urandom(4).hex()}"
        self._flushed: "dict[str, int] | None" = None
        if root:
            os.makedirs(root, exist_ok=True)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------
    # Serialisation (shared by both levels)

    def _dump(self, payload: object) -> _Entry:
        """Serialise *payload* into an entry.  The cyclic collector is
        paused for the duration — a dump touches the whole graph and
        allocates steadily, which otherwise triggers collection passes
        mid-walk for no benefit."""
        from repro.dalvik.method import JavaMethod
        from repro.kernel.vma import VMA, VMAKind
        from repro.libs.object import MappedObject, SharedObject

        t0 = time.perf_counter()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        table: list = []
        index: dict[int, int] = {}

        def persistent_id(
            obj: object,
            _index_get=index.get,
            _index=index,
            _table_append=table.append,
            _VMA=VMA,
            _HEAP=VMAKind.HEAP,
            _other={MappedObject, SharedObject, JavaMethod},
        ) -> "int | None":
            # Hot path: the pickler calls this for *every* object in the
            # graph, so the _shareable() test is inlined with pre-bound
            # locals rather than paying a second call per object.
            t = obj.__class__
            if t is _VMA:
                if obj.kind is _HEAP:  # type: ignore[attr-defined]
                    return None
            elif t not in _other:
                return None
            idx = _index_get(id(obj))
            if idx is None:
                idx = len(table)
                _index[id(obj)] = idx
                _table_append(obj)
            return idx

        try:
            buf = io.BytesIO()
            pickler = pickle.Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL)
            pickler.persistent_id = persistent_id  # type: ignore[method-assign]
            pickler.dump(payload)
        finally:
            if gc_was_enabled:
                gc.enable()
        self.capture_ms += 1e3 * (time.perf_counter() - t0)
        return _Entry(buf.getvalue(), table)

    def _load(self, entry: _Entry) -> object:
        """A fresh mutable graph from *entry*; only the audited immutable
        objects in the shared table are handed back by reference."""
        t0 = time.perf_counter()
        gc_was_enabled = gc.isenabled()
        gc.disable()          # a load is one long allocation burst
        try:
            unpickler = pickle.Unpickler(io.BytesIO(entry.blob))
            unpickler.persistent_load = entry.table.__getitem__  # type: ignore[method-assign]
            payload = unpickler.load()
        finally:
            if gc_was_enabled:
                gc.enable()
        self.restore_ms += 1e3 * (time.perf_counter() - t0)
        return payload

    # ------------------------------------------------------------------
    # Level 2: full (system, stack, model) templates

    def capture(self, key: str, payload: object) -> None:
        """Checkpoint *payload* (the post-boot object graph) under *key*.

        The caller keeps using the live graph for its own run: capture
        serialises the current state, it does not consume it.  With a
        disk tier, the template is also published for sibling workers.
        """
        entry = self._dump(payload)
        self._entries[key] = entry
        if self.root:
            self._publish(key, entry)

    def restore(self, key: str) -> "object | None":
        """A fresh object graph for *key*, or ``None`` on a miss.

        Lookup order is memory, then (when a disk tier is configured)
        the shared blob directory — a disk hit is promoted to memory so
        the load cost is paid once per process.  Seed-delta entries are
        rematerialized from their level-1 template.
        """
        entry = self._entries.get(key)
        from_disk = False
        if entry is None and self.root:
            entry = self._disk_load(key)
            if entry is not None:
                self._entries[key] = entry
                from_disk = True
        if entry is None:
            self.misses += 1
            return None
        if isinstance(entry, _DeltaEntry):
            payload = self._materialize(entry)
            if payload is None:
                # The backing level-1 template vanished (gc'd mid-run):
                # drop the stale recipe and report an honest miss.
                self._entries.pop(key, None)
                self.misses += 1
                return None
        else:
            payload = self._load(entry)
            if from_disk:
                self.disk_hits += 1
            else:
                self.memory_hits += 1
        self.hits += 1
        return payload

    # ------------------------------------------------------------------
    # Level 1: seed-normalised (system, stack) templates

    def capture_level1(self, key: str, system, stack) -> None:
        """Checkpoint the booted-but-unmodelled ``(system, stack)`` pair
        with the seed-dependent state normalised out, so the blob is
        identical whichever seed's boot produced it.  Counts as the one
        full boot this template will ever cost on this host."""
        saved = (system.seed, system.rng, stack.system_server.methods)
        system.seed = _CANONICAL_SEED
        system.rng = None
        stack.system_server.methods = None
        try:
            entry = self._dump((system, stack))
        finally:
            system.seed, system.rng, stack.system_server.methods = saved
        self._level1[key] = entry
        self.boots += 1
        if self.root:
            self._publish(key, entry)

    def restore_level1(self, key: str):
        """A fresh seed-normalised ``(system, stack)`` pair, or ``None``.

        The caller owns the graph and must :func:`apply_seed_delta`
        before using it.  Does not touch the level-2 hit/miss counters:
        those account template lookups, this is the tier beneath them.
        """
        entry = self._level1.get(key)
        from_disk = False
        if entry is None and self.root:
            entry = self._disk_load(key)
            if entry is not None:
                self._level1[key] = entry
                from_disk = True
        if entry is None:
            return None
        if from_disk:
            self.disk_hits += 1
        else:
            self.memory_hits += 1
        return self._load(entry)

    def derive(self, key: str, l1_key: str, seed: int, bench_id: str):
        """A full ``(system, stack, model)`` graph derived from the
        level-1 template, or ``None`` when no level-1 template exists.

        On success the recipe is recorded as the level-2 entry for
        *key*, so repeat lookups (duration variants of the same seed)
        come straight from :meth:`restore`.
        """
        payload = self._materialize(_DeltaEntry(l1_key, seed, bench_id))
        if payload is not None:
            self._entries.setdefault(key, _DeltaEntry(l1_key, seed, bench_id))
        return payload

    def _materialize(self, delta: _DeltaEntry):
        pair = self.restore_level1(delta.level1_key)
        if pair is None:
            return None
        from repro.core.suite import get_benchmark

        system, stack = pair
        apply_seed_delta(system, stack, delta.seed)
        spec = get_benchmark(delta.bench_id)
        model = spec.factory(delta.seed)
        if spec.is_android:
            model.setup_files(system)
        self.seed_deltas += 1
        return system, stack, model

    def boot_lock(self, key: str):
        """A context manager serialising the boot+capture+publish of one
        level-1 template across this host's workers (no-op without a
        disk tier: in-process runs are already sequential per store)."""
        if not self.root:
            return _NullLock()
        return _BootLock(self.root, key)

    # ------------------------------------------------------------------
    # Disk tier

    def _path(self, key: str, suffix: str) -> str:
        assert self.root is not None
        return os.path.join(self.root, key + suffix)

    def _atomic_write(self, path: str, data: bytes) -> None:
        tmp = path + f".tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def _publish(self, key: str, entry: _Entry) -> None:
        """Spill one template to the shared directory (best-effort: the
        memory tier already holds it, so I/O failure only costs reuse).

        The sidecar — shared table plus a sha256 of the blob — lands
        first, so a visible ``.blob`` always implies a complete,
        verifiable pair; ``os.replace`` keeps each file internally
        untorn.  Publishes of one key are byte-identical across workers
        (capture is deterministic), so last-write-wins is safe.
        """
        blob_path = self._path(key, _BLOB_SUFFIX)
        if os.path.exists(blob_path):
            return
        meta = {
            "version": SNAPSHOT_VERSION,
            "sha256": hashlib.sha256(entry.blob).hexdigest(),
            "table": entry.table,
        }
        try:
            self._atomic_write(
                self._path(key, _TABLE_SUFFIX),
                pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL),
            )
            self._atomic_write(blob_path, entry.blob)
        except OSError:
            return
        self.publishes += 1

    def _disk_load(self, key: str) -> "_Entry | None":
        """Read and verify one on-disk template; anything torn or
        corrupt is discarded (with a warning) and reported as a miss."""
        try:
            with open(self._path(key, _BLOB_SUFFIX), "rb") as fh:
                blob = fh.read()
        except OSError:
            return None
        try:
            with open(self._path(key, _TABLE_SUFFIX), "rb") as fh:
                meta = pickle.load(fh)
            if (
                not isinstance(meta, dict)
                or meta.get("version") != SNAPSHOT_VERSION
                or meta.get("sha256") != hashlib.sha256(blob).hexdigest()
            ):
                raise ValueError("snapshot blob/sidecar mismatch")
            table = meta["table"]
            if not isinstance(table, list):
                raise ValueError("snapshot sidecar table is not a list")
        except Exception:
            for suffix in (_BLOB_SUFFIX, _TABLE_SUFFIX):
                with contextlib.suppress(OSError):
                    os.unlink(self._path(key, suffix))
            warnings.warn(
                f"discarding corrupt snapshot template {key[:12]}",
                RuntimeWarning,
                stacklevel=4,
            )
            return None
        return _Entry(blob, table)

    # ------------------------------------------------------------------
    # Accounting

    def describe(self, key: str) -> tuple[int, int]:
        """``(blob_bytes, shared_objects)`` of one stored template
        (``(0, 0)`` for a seed-delta recipe, which stores no blob)."""
        entry = self._entries[key]
        if isinstance(entry, _DeltaEntry):
            return 0, 0
        return len(entry.blob), len(entry.table)

    def stats(self) -> SnapshotStats:
        """Session counters (hits/misses include every restore attempt)."""
        blobs = [e for e in self._entries.values() if isinstance(e, _Entry)]
        return SnapshotStats(
            templates=len(self._entries),
            hits=self.hits,
            misses=self.misses,
            blob_bytes=sum(len(e.blob) for e in blobs),
            shared_objects=sum(len(e.table) for e in blobs),
            capture_ms=self.capture_ms,
            restore_ms=self.restore_ms,
            level1_templates=len(self._level1),
            memory_hits=self.memory_hits,
            disk_hits=self.disk_hits,
            boots=self.boots,
            publishes=self.publishes,
            seed_deltas=self.seed_deltas,
        )

    def reset_session(self) -> None:
        """Zero the counters and take a fresh stats identity, keeping
        the cached templates.  Used by pool-worker seeding so a
        fork-inherited store doesn't re-report its parent's counts."""
        for field in _COUNTER_FIELDS:
            setattr(self, field, 0)
        self.capture_ms = 0.0
        self.restore_ms = 0.0
        self._token = f"{os.getpid()}.{os.urandom(4).hex()}"
        self._flushed = None

    def flush_worker_stats(self) -> None:
        """Mirror this store's counters into its per-session stats file
        (disk-tier stores only; a no-op when nothing changed).

        Each store session owns one uniquely named file it overwrites
        in place, so sums over ``_stats.*.json`` are exact — no lost
        updates however many workers share the directory.
        """
        if not self.root:
            return
        counters = {field: getattr(self, field) for field in _COUNTER_FIELDS}
        if counters == self._flushed:
            return
        path = os.path.join(self.root, f"_stats.{self._token}.json")
        try:
            self._atomic_write(
                path, json.dumps(counters, sort_keys=True).encode("utf-8")
            )
        except OSError:
            return
        self._flushed = counters


def aggregate_disk_stats(root: str) -> "dict[str, int]":
    """Sum the per-session counter files of a snapshot directory.

    Cumulative over the directory's lifetime (every store session that
    ever flushed there), which is the useful reading: "how many boots
    has this template store absorbed in total".
    """
    totals = dict.fromkeys(_COUNTER_FIELDS, 0)
    try:
        names = os.listdir(root)
    except OSError:
        return totals
    for name in names:
        if name != _STATS_BASE and not _STATS_NAME.match(name):
            continue
        try:
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                counters = json.load(fh)
        except (OSError, ValueError):
            continue
        for field in _COUNTER_FIELDS:
            value = counters.get(field)
            if isinstance(value, int):
                totals[field] += value
    return totals


def _fold_dead_stats(root: str) -> int:
    """Merge dead writers' session counter files into the base file.

    Every store session writes its own ``_stats.<pid>.<nonce>.json`` and
    never deletes it, so a long-lived shared directory accumulates one
    file per run forever.  This folds the counters of files whose writer
    pid is gone (the same live-pid test ``ResultCache.sweep_stale_tmp``
    uses) into the cumulative ``_stats.base.json`` and unlinks them;
    live sessions' files are left alone, so
    :func:`aggregate_disk_stats` — which sums the base file plus the
    session files — reads the same totals before and after a fold.
    Returns the number of session files folded.
    """
    dead: "list[str]" = []
    for name in os.listdir(root):
        if not _STATS_NAME.match(name):
            continue
        if not _pid_alive(int(name.split(".")[1])):
            dead.append(name)
    if not dead:
        return 0
    totals = dict.fromkeys(_COUNTER_FIELDS, 0)
    base_path = os.path.join(root, _STATS_BASE)
    with contextlib.suppress(OSError, ValueError):
        with open(base_path, encoding="utf-8") as fh:
            counters = json.load(fh)
        for field in _COUNTER_FIELDS:
            value = counters.get(field)
            if isinstance(value, int):
                totals[field] += value
    folded: "list[str]" = []
    for name in sorted(dead):
        try:
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                counters = json.load(fh)
        except (OSError, ValueError):
            # Unreadable droppings of a dead writer carry no counts to
            # preserve; unlink them rather than re-visiting every pass.
            with contextlib.suppress(OSError):
                os.unlink(os.path.join(root, name))
            continue
        for field in _COUNTER_FIELDS:
            value = counters.get(field)
            if isinstance(value, int):
                totals[field] += value
        folded.append(name)
    if not folded:
        return 0
    tmp = base_path + f".tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(totals, sort_keys=True))
        os.replace(tmp, base_path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        return 0
    for name in folded:
        with contextlib.suppress(OSError):
            os.unlink(os.path.join(root, name))
    return len(folded)


def _disk_entries(root: str) -> "Iterator[tuple[str, list[str], float, int]]":
    """``(key, paths, mtime, bytes)`` per on-disk template (pairing the
    blob with its sidecar; a lone sidecar is still one evictable unit)."""
    keys: dict[str, list[str]] = {}
    for name in sorted(os.listdir(root)):
        if name.endswith(_BLOB_SUFFIX) or name.endswith(_TABLE_SUFFIX):
            if _TMP_NAME.search(name):
                continue
            key = name.rsplit(".", 1)[0]
            keys.setdefault(key, []).append(os.path.join(root, name))
    for key, paths in keys.items():
        mtime = 0.0
        size = 0
        try:
            for path in paths:
                st = os.stat(path)
                mtime = max(mtime, st.st_mtime)
                size += st.st_size
        except OSError:
            continue
        yield key, paths, mtime, size


def snapshot_gc(
    root: str,
    max_bytes: "int | None" = None,
    max_age: "float | None" = None,
    max_entries: "int | None" = None,
    dry_run: bool = False,
    now: "float | None" = None,
) -> GcReport:
    """Evict on-disk templates oldest-first to fit the given bounds.

    Same contract and report shape as ``ResultCache.gc``: the age cut
    runs first, then the entry-count bound, then the byte budget —
    each evicting from the least recently written end.  One template
    (blob + sidecar) is one entry.  Stale ``.tmp.<pid>`` spill files
    and ``.lock`` files whose holder died are swept as a side effect
    (uncounted: they were never live entries), and dead sessions'
    ``_stats.<pid>.<nonce>.json`` counter files fold into the merged
    ``_stats.base.json`` so the directory stops accumulating one file
    per run forever (totals are preserved; live writers' files are
    untouched; skipped under *dry_run*).
    """
    if now is None:
        now = time.time()
    if not dry_run:
        _fold_dead_stats(root)
    for name in os.listdir(root):
        path = os.path.join(root, name)
        match = _TMP_NAME.search(name)
        if match is not None and not _pid_alive(int(match.group(1))):
            with contextlib.suppress(OSError):
                os.unlink(path)
            continue
        if name.endswith(_LOCK_SUFFIX):
            try:
                with open(path, encoding="ascii") as fh:
                    holder = int(fh.read().strip() or "0")
            except (OSError, ValueError):
                continue
            if not _pid_alive(holder):
                with contextlib.suppress(OSError):
                    os.unlink(path)

    entries = sorted(_disk_entries(root), key=lambda e: (e[2], e[0]))
    doomed: "list[tuple[str, list[str], float, int]]" = []
    kept = list(entries)

    if max_age is not None:
        cutoff = now - max_age
        doomed.extend(e for e in kept if e[2] < cutoff)
        kept = [e for e in kept if e[2] >= cutoff]
    if max_entries is not None:
        while len(kept) > max_entries:
            doomed.append(kept.pop(0))
    if max_bytes is not None:
        total = sum(e[3] for e in kept)
        while kept and total > max_bytes:
            entry = kept.pop(0)
            total -= entry[3]
            doomed.append(entry)

    removed_entries = removed_bytes = 0
    for key, paths, _mtime, size in doomed:
        if not dry_run:
            failed = False
            for path in paths:
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    pass
                except OSError:
                    failed = True
            if failed:
                kept.append((key, paths, _mtime, size))
                continue
        removed_entries += 1
        removed_bytes += size
    return GcReport(
        removed_entries=removed_entries,
        removed_bytes=removed_bytes,
        kept_entries=len(kept),
        kept_bytes=sum(e[3] for e in kept),
    )


# ----------------------------------------------------------------------
# Module-global store plumbing (see "Store scoping" in the module docs).

_active: SnapshotStore | None = None
_env_checked = False


def enable_snapshots(
    store: "SnapshotStore | None" = None, root: "str | None" = None
) -> SnapshotStore:
    """Turn the snapshot fast path on for this process (and, via the
    environment, for any process-pool workers spawned afterwards).

    *root* adds the shared disk tier: templates spill to that directory
    and workers seeded from the environment read and publish there too.
    """
    global _active, _env_checked
    _env_checked = True
    if store is None:
        store = SnapshotStore(root=os.path.abspath(root) if root else None)
    _active = store
    os.environ[ENV_FLAG] = store.root if store.root else "1"
    return _active


def disable_snapshots() -> None:
    """Turn the fast path off and drop the store."""
    global _active, _env_checked
    _active = None
    _env_checked = True
    os.environ.pop(ENV_FLAG, None)


def active_store() -> SnapshotStore | None:
    """The enabled store, or ``None`` when snapshots are off.

    The first call in a freshly imported process (a spawned pool worker)
    honours the inherited ``REPRO_SNAPSHOTS`` flag, seeding a per-worker
    store lazily — memory-only for ``"1"``, disk-backed for a path.
    """
    global _active, _env_checked
    if _active is None and not _env_checked:
        _env_checked = True
        value = os.environ.get(ENV_FLAG)
        if value == "1":
            _active = SnapshotStore()
        elif value:
            _active = SnapshotStore(root=value)
    return _active


def seed_worker_store() -> None:
    """Process-pool initializer: sync this worker's store with the flag.

    Spawn-started workers arrive with no store and build one from the
    environment; fork-started workers inherit the parent's module state
    (including its warm memory tier, which is kept) but must not reuse
    its counters or stats-file identity, so the session is reset.
    """
    global _active, _env_checked
    _env_checked = True
    value = os.environ.get(ENV_FLAG)
    if not value:
        _active = None
        return
    root = None if value == "1" else value
    if _active is not None and _active.root == root:
        _active.reset_session()
    else:
        _active = SnapshotStore(root=root)


def snapshots_enabled() -> bool:
    """Whether the snapshot fast path is currently on."""
    return active_store() is not None
