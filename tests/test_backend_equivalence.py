"""The cross-backend differential matrix.

The contract under test: a run is a pure function of ``(bench_id,
RunConfig)``, so the same suite or sweep serialises to byte-identical
JSON through every execution path — the serial executor, the process
pool, and shards merged back together — whether the cache is cold,
partially warmed, or fully pre-warmed.  Completion order
is backend-specific and explicitly *not* part of the contract, so the
matrix also pins the progress protocol: out-of-order completion must
still report index-correct units, and cache hits must report
``elapsed=None`` no matter which thread delivers them.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import (
    PoolBackend,
    ResultCache,
    RunConfig,
    SerialBackend,
    SuiteResult,
    SuiteRunner,
    SweepAxis,
    SweepRunner,
    SweepSpec,
)
from repro.core.runner import execute_one
from repro.sim.ticks import millis

FAST = RunConfig(duration_ticks=millis(400), settle_ticks=millis(200))
#: The asymmetric row of the matrix: a 2+2 big.LITTLE machine (CFS
#: scheduler, asymmetric core speeds) under the same purity contract.
FAST_BIGLITTLE = RunConfig(duration_ticks=millis(400), settle_ticks=millis(200),
                           cpus=4, cpu_profile="2+2")
#: The symmetric multi-core row: 4 equal cores (round-robin policy).
FAST_CPUS4 = RunConfig(duration_ticks=millis(400), settle_ticks=millis(200),
                       cpus=4)
#: The suite matrix's configs: single-core and symmetric 4-core.
SUITE_CONFIGS = {"cpus1": FAST, "cpus4": FAST_CPUS4}
SUITE_IDS = ["countdown.main", "music.mp3.view", "999.specrand"]
#: A multi-axis grid: 2 benchmarks x (jit on/off) x (seed 1/2) = 8 cells.
SWEEP_SPEC = SweepSpec(
    benches=("countdown.main", "999.specrand"),
    axes=(SweepAxis("jit", (True, False)), SweepAxis("seed", (1, 2))),
    base=FAST,
)
#: The cpu_profile x cpus differential row: one grid whose cells span
#: the symmetric single-core baseline (round-robin policy), a 1+1 and a
#: 2+2 big.LITTLE machine (CFS policy) — each profile pins its own core
#: count, so the row varies both dimensions at once.  (Crossing an
#: explicit multi-value ``cpus`` axis with a profile axis is rejected in
#: either axis order; see the matrix test below.)
PROFILE_SWEEP_SPEC = SweepSpec(
    benches=("countdown.main", "music.mp3.view"),
    axes=(SweepAxis("cpu_profile", (None, "1+1", "2+2")),),
    base=FAST,
)

BACKENDS = ("serial", "pool")
WARMTH = ("cold", "partial", "prewarmed")


def _make(name: str):
    if name == "serial":
        return SerialBackend()
    if name == "pool":
        return PoolBackend(jobs=2)
    raise AssertionError(name)


def _suite_bytes(suite: SuiteResult, path) -> bytes:
    suite.save(str(path))
    return path.read_bytes()


def _sweep_bytes(sweep, path) -> bytes:
    sweep.save(str(path))
    return path.read_bytes()


def _warm_suite_cache(tmp_path, warmth: str, cfg: RunConfig) -> str | None:
    """A cache directory in the requested warmth state (None = no cache)."""
    if warmth == "cold":
        return None
    root = str(tmp_path / "cache")
    ids = SUITE_IDS if warmth == "prewarmed" else SUITE_IDS[:1]
    SuiteRunner(cfg, cache=ResultCache(root)).run_suite(ids)
    return root


def _warm_sweep_cache(tmp_path, warmth: str) -> str | None:
    if warmth == "cold":
        return None
    root = str(tmp_path / "cache")
    spec = SWEEP_SPEC if warmth == "prewarmed" else SweepSpec(
        benches=("countdown.main",), axes=SWEEP_SPEC.axes, base=FAST
    )
    SweepRunner(cache=ResultCache(root)).run(spec)
    return root


@pytest.fixture(scope="module")
def serial_suite_bytes(tmp_path_factory) -> bytes:
    """The reference: the serial backend's saved SuiteResult."""
    suite = SuiteRunner(FAST, backend=SerialBackend()).run_suite(SUITE_IDS)
    return _suite_bytes(suite, tmp_path_factory.mktemp("ref") / "suite.json")


@pytest.fixture(scope="module")
def serial_suite_refs(serial_suite_bytes, tmp_path_factory) -> dict:
    """The serial backend's saved SuiteResult per ``SUITE_CONFIGS`` label."""
    cpus4 = SuiteRunner(
        FAST_CPUS4, backend=SerialBackend()
    ).run_suite(SUITE_IDS)
    path = tmp_path_factory.mktemp("ref") / "cpus4.json"
    return {"cpus1": serial_suite_bytes, "cpus4": _suite_bytes(cpus4, path)}


@pytest.fixture(scope="module")
def serial_sweep_bytes(tmp_path_factory) -> bytes:
    """The reference: the serial backend's saved SweepResult."""
    sweep = SweepRunner(backend=SerialBackend()).run(SWEEP_SPEC)
    return _sweep_bytes(sweep, tmp_path_factory.mktemp("ref") / "sweep.json")


# ----------------------------------------------------------------------
# (a) Suite matrix


class TestSuiteMatrix:
    @pytest.mark.parametrize("warmth", WARMTH)
    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("label", sorted(SUITE_CONFIGS))
    def test_byte_identical_across_backends_and_cache_states(
        self, label, name, warmth, serial_suite_refs, tmp_path
    ):
        cfg = SUITE_CONFIGS[label]
        cache_dir = _warm_suite_cache(tmp_path, warmth, cfg)
        backend = _make(name)
        suite = SuiteRunner(
            cfg,
            backend=backend,
            cache=ResultCache(cache_dir) if cache_dir else None,
        ).run_suite(SUITE_IDS)
        assert _suite_bytes(suite, tmp_path / "out.json") == \
            serial_suite_refs[label]
        if warmth == "prewarmed":
            assert backend.executed == []        # zero redundant simulations
        elif warmth == "partial":
            assert sorted(backend.executed) == sorted(SUITE_IDS[1:])

    @pytest.mark.parametrize("warmth", WARMTH)
    @pytest.mark.parametrize("name", BACKENDS)
    def test_sharded_shards_merge_byte_identical(
        self, name, warmth, serial_suite_bytes, tmp_path
    ):
        """Shards partition the full plan before any cache probe, so a
        warm cache never moves a unit between shards."""
        cache_dir = _warm_suite_cache(tmp_path, warmth, FAST)
        backends = [_make(name) for _ in (1, 2)]
        parts = [
            SuiteRunner(
                FAST,
                backend=backend,
                cache=ResultCache(cache_dir) if cache_dir else None,
                shard=(k, 2),
            ).run_suite(SUITE_IDS)
            for k, backend in zip((1, 2), backends)
        ]
        merged = SuiteResult()
        for bench_id in SUITE_IDS:               # canonical suite order
            for part in parts:
                if bench_id in part.runs:
                    merged.add(part.runs[bench_id])
        assert _suite_bytes(merged, tmp_path / "out.json") == serial_suite_bytes
        misses = {"cold": SUITE_IDS, "partial": SUITE_IDS[1:],
                  "prewarmed": []}[warmth]
        ran = [bid for backend in backends for bid in backend.executed]
        assert sorted(ran) == sorted(misses)


# ----------------------------------------------------------------------
# (b) Sweep matrix


class TestSweepMatrix:
    @pytest.mark.parametrize("warmth", WARMTH)
    @pytest.mark.parametrize("name", BACKENDS)
    def test_byte_identical_across_backends_and_cache_states(
        self, name, warmth, serial_sweep_bytes, tmp_path
    ):
        cache_dir = _warm_sweep_cache(tmp_path, warmth)
        backend = _make(name)
        sweep = SweepRunner(
            backend=backend,
            cache=ResultCache(cache_dir) if cache_dir else None,
        ).run(SWEEP_SPEC)
        assert _sweep_bytes(sweep, tmp_path / "out.json") == serial_sweep_bytes
        if warmth == "prewarmed":
            assert backend.executed == []        # zero redundant simulations
        elif warmth == "partial":
            # countdown.main's four variants were pre-warmed; only the
            # other benchmark's cells may simulate.
            assert backend.executed == ["999.specrand"] * 4

    @pytest.mark.parametrize("warmth", WARMTH)
    @pytest.mark.parametrize("name", BACKENDS)
    def test_sharded_shards_merge_byte_identical(
        self, name, warmth, serial_sweep_bytes, tmp_path
    ):
        cache_dir = _warm_sweep_cache(tmp_path, warmth)
        backends = [_make(name) for _ in (1, 2)]
        shards = [
            SweepRunner(
                backend=backend,
                cache=ResultCache(cache_dir) if cache_dir else None,
                shard=(k, 2),
            ).run(SWEEP_SPEC)
            for k, backend in zip((1, 2), backends)
        ]
        merged = shards[0]
        merged.merge(shards[1])
        assert _sweep_bytes(merged, tmp_path / "out.json") == serial_sweep_bytes
        misses = {"cold": list(SWEEP_SPEC.benches) * 4,
                  "partial": ["999.specrand"] * 4, "prewarmed": []}[warmth]
        ran = [bid for backend in backends for bid in backend.executed]
        assert sorted(ran) == sorted(misses)


# ----------------------------------------------------------------------
# (b2) cpu_profile x cpus matrix: the asymmetric (CFS-scheduled) model
# obeys the same purity contract as the symmetric one


def _warm_profile_cache(tmp_path, warmth: str) -> str | None:
    if warmth == "cold":
        return None
    root = str(tmp_path / "cache")
    SuiteRunner(FAST_BIGLITTLE, cache=ResultCache(root)).run_suite(SUITE_IDS)
    return root


@pytest.fixture(scope="module")
def serial_biglittle_bytes(tmp_path_factory) -> bytes:
    """The reference: the serial backend's 2+2 big.LITTLE SuiteResult."""
    suite = SuiteRunner(
        FAST_BIGLITTLE, backend=SerialBackend()
    ).run_suite(SUITE_IDS)
    return _suite_bytes(suite, tmp_path_factory.mktemp("ref") / "bl.json")


@pytest.fixture(scope="module")
def serial_profile_sweep_bytes(tmp_path_factory) -> bytes:
    """The reference: the serial backend's cpu_profile-row SweepResult."""
    sweep = SweepRunner(backend=SerialBackend()).run(PROFILE_SWEEP_SPEC)
    return _sweep_bytes(sweep, tmp_path_factory.mktemp("ref") / "blsweep.json")


class TestCpuProfileMatrix:
    @pytest.mark.parametrize("warmth", ("cold", "prewarmed"))
    @pytest.mark.parametrize("name", BACKENDS)
    def test_asymmetric_suite_byte_identical(
        self, name, warmth, serial_biglittle_bytes, tmp_path
    ):
        cache_dir = _warm_profile_cache(tmp_path, warmth)
        backend = _make(name)
        suite = SuiteRunner(
            FAST_BIGLITTLE,
            backend=backend,
            cache=ResultCache(cache_dir) if cache_dir else None,
        ).run_suite(SUITE_IDS)
        assert _suite_bytes(suite, tmp_path / "out.json") == \
            serial_biglittle_bytes
        if warmth == "prewarmed":
            assert backend.executed == []    # zero redundant simulations

    @pytest.mark.parametrize("name", BACKENDS)
    def test_asymmetric_sharded_merge_byte_identical(
        self, name, serial_biglittle_bytes, tmp_path
    ):
        parts = [
            SuiteRunner(
                FAST_BIGLITTLE, backend=_make(name), shard=(k, 2)
            ).run_suite(SUITE_IDS)
            for k in (1, 2)
        ]
        merged = SuiteResult()
        for bench_id in SUITE_IDS:
            for part in parts:
                if bench_id in part.runs:
                    merged.add(part.runs[bench_id])
        assert _suite_bytes(merged, tmp_path / "out.json") == \
            serial_biglittle_bytes

    @pytest.mark.parametrize("warmth", ("cold", "prewarmed"))
    @pytest.mark.parametrize("name", BACKENDS)
    def test_profile_row_sweep_byte_identical(
        self, name, warmth, serial_profile_sweep_bytes, tmp_path
    ):
        cache_dir = None
        if warmth == "prewarmed":
            cache_dir = str(tmp_path / "cache")
            SweepRunner(cache=ResultCache(cache_dir)).run(PROFILE_SWEEP_SPEC)
        backend = _make(name)
        sweep = SweepRunner(
            backend=backend,
            cache=ResultCache(cache_dir) if cache_dir else None,
        ).run(PROFILE_SWEEP_SPEC)
        assert _sweep_bytes(sweep, tmp_path / "out.json") == \
            serial_profile_sweep_bytes
        if warmth == "prewarmed":
            assert backend.executed == []

    def test_profile_cells_really_differ(self, serial_profile_sweep_bytes):
        """The matrix is not vacuous: the three profile cells of one
        benchmark are three different results."""
        sweep = SweepRunner(backend=SerialBackend()).run(PROFILE_SWEEP_SPEC)
        cells = [
            sweep.get("music.mp3.view", variant)
            for variant in ("cpu_profile=none", "cpu_profile=1+1",
                            "cpu_profile=2+2")
        ]
        assert cells[0].cpus == 1 and cells[1].cpus == 2 and cells[2].cpus == 4
        payloads = [str(cell.to_json_dict()) for cell in cells]
        assert len(set(payloads)) == 3

    def test_crossing_cpus_and_profile_axes_is_rejected(self):
        """An explicit cpus axis crossed with a profile axis is refused
        in either order (a profile pins its own core count): profile
        applied last mints duplicate-config cells, cpus applied last
        would mint a profile/count mismatch — both fail up front rather
        than mid-simulation."""
        from repro.errors import ConfigError

        profile_last = SweepSpec(
            benches=("countdown.main",),
            axes=(SweepAxis("cpus", (1, 4)),
                  SweepAxis("cpu_profile", (None, "2+2"))),
            base=FAST,
        )
        with pytest.raises(ConfigError):
            profile_last.variants()
        cpus_last = SweepSpec(
            benches=("countdown.main",),
            axes=(SweepAxis("cpu_profile", (None, "2+2")),
                  SweepAxis("cpus", (1, 4))),
            base=FAST,
        )
        with pytest.raises(ConfigError):
            cpus_last.variants()
        # Same guard for a profile arriving via the base config.
        with pytest.raises(ConfigError):
            SweepAxis("cpus", (2,)).apply(FAST_BIGLITTLE, 2)


# ----------------------------------------------------------------------
# (c) Full-suite acceptance: pool vs serial over all 25 benchmarks


class TestFullSuite:
    def test_pool_full_suite_byte_identical_to_serial(self, tmp_path):
        serial = SuiteRunner(FAST, backend=SerialBackend()).run_suite()
        overlapped = SuiteRunner(FAST, backend=PoolBackend(jobs=4)).run_suite()
        assert _suite_bytes(overlapped, tmp_path / "a.json") == _suite_bytes(
            serial, tmp_path / "s.json"
        )


# ----------------------------------------------------------------------
# (d) BatchProgress ordering under out-of-order completion


class ReversingBackend(SerialBackend):
    """Reports completions in *reverse* submission order — a deterministic
    stand-in for a pool's arbitrary completion order."""

    name = "reversing"

    def execute_stream(self, items, on_result):
        batch = list(items)
        runs = []
        for bench_id, cfg in batch:
            runs.append(execute_one(bench_id, cfg))
            self.executed.append(bench_id)
        for index in reversed(range(len(batch))):
            on_result(index, 0.25, runs[index])


class TestProgressOrdering:
    def test_reversed_completion_reports_index_correct_units(self, tmp_path):
        """With the first benchmark pre-warmed and the backend completing
        backwards, every progress event must still pair the right unit
        with the right result, hits flagged ``elapsed=None``."""
        root = str(tmp_path / "cache")
        SuiteRunner(FAST, cache=ResultCache(root)).run_suite(SUITE_IDS[:1])

        events = []
        suite = SuiteRunner(
            FAST, backend=ReversingBackend(), cache=ResultCache(root)
        ).run_suite(
            SUITE_IDS,
            progress=lambda bid, secs, res: events.append((bid, secs, res)),
        )
        assert sorted(bid for bid, _, _ in events) == sorted(SUITE_IDS)
        assert all(bid == res.bench_id for bid, _, res in events)
        elapsed = dict((bid, secs) for bid, secs, _ in events)
        assert elapsed[SUITE_IDS[0]] is None          # the cache hit
        assert all(elapsed[bid] == 0.25 for bid in SUITE_IDS[1:])
        assert suite.ids() == SUITE_IDS               # results in item order

    def test_reversed_completion_sweep_matches_serial_bytes(
        self, serial_sweep_bytes, tmp_path
    ):
        sweep = SweepRunner(backend=ReversingBackend()).run(SWEEP_SPEC)
        assert _sweep_bytes(sweep, tmp_path / "out.json") == serial_sweep_bytes

    def test_pool_progress_indices_address_submission_order(self):
        """The pool completes in arbitrary order; its on_result index
        must always address the submitted stream position."""
        items = [
            ("countdown.main", FAST),
            ("999.specrand", FAST),
            ("countdown.main", FAST.scaled(0.5)),
        ]
        results = {}
        PoolBackend(jobs=2).execute_stream(
            items, lambda i, secs, res: results.setdefault(i, res)
        )
        assert sorted(results) == [0, 1, 2]
        assert [results[i].bench_id for i in range(3)] == \
            [b for b, _ in items]
        assert results[2].duration_ticks == FAST.scaled(0.5).duration_ticks

    def test_pool_completions_run_off_the_calling_thread(self):
        """The overlap mechanism itself: on_result runs on the completion
        thread, not the thread that called execute_stream."""
        caller = threading.get_ident()
        threads = set()
        PoolBackend(jobs=2).execute_stream(
            [("countdown.main", FAST), ("999.specrand", FAST)],
            lambda i, secs, res: threads.add(threading.get_ident()),
        )
        assert threads and caller not in threads

    def test_pool_warm_hits_report_none_elapsed(self, tmp_path):
        """Cache hits keep the elapsed=None convention even when misses
        complete concurrently on the pool."""
        root = str(tmp_path / "cache")
        SuiteRunner(FAST, cache=ResultCache(root)).run_suite(SUITE_IDS[:2])
        events = []
        SuiteRunner(
            FAST, backend=PoolBackend(jobs=2), cache=ResultCache(root)
        ).run_suite(
            SUITE_IDS,
            progress=lambda bid, secs, res: events.append((bid, secs)),
        )
        elapsed = dict(events)
        assert len(events) == len(SUITE_IDS)
        assert elapsed[SUITE_IDS[0]] is None and elapsed[SUITE_IDS[1]] is None
        assert elapsed[SUITE_IDS[2]] is not None      # the one real run


# ----------------------------------------------------------------------
# (e) Streaming: lookups/writes ride the stream, off the critical path


class TestStreamingOverlap:
    def test_streamed_lookups_interleave_with_execution(self, tmp_path):
        """The cache probe for a later unit happens *after* earlier units
        already executed — lookups ride the stream instead of blocking
        the first submission."""
        events = []

        class RecordingCache(ResultCache):
            def get(self, bench_id, cfg):
                events.append(("get", bench_id))
                return super().get(bench_id, cfg)

            def put(self, bench_id, cfg, result):
                events.append(("put", bench_id))
                super().put(bench_id, cfg, result)

        ids = SUITE_IDS[:2]
        SuiteRunner(
            FAST, backend=SerialBackend(),
            cache=RecordingCache(str(tmp_path / "cache")),
        ).run_suite(ids)
        assert events == [
            ("get", ids[0]), ("put", ids[0]),
            ("get", ids[1]), ("put", ids[1]),
        ]


# ----------------------------------------------------------------------
# (f) Fault matrix: an armed fault plan is part of the purity contract.
# Faults draw from RNG streams derived from the bench seed, so a run is
# still a pure function of (bench_id, RunConfig) — the same plan must
# serialise byte-identically through every backend, cache state and
# shard merge.


from repro.faults import fault_plan  # noqa: E402

#: The whole kitchen sink: binder failures, a kill/restart, an eviction
#: storm and a throttle window, all in one measurement window.
FAST_FAULTED = RunConfig(duration_ticks=millis(400), settle_ticks=millis(200),
                         faults=fault_plan("chaos"))

FAULT_SWEEP_SPEC = SweepSpec(
    benches=("countdown.main", "999.specrand"),
    axes=(SweepAxis("faults", (None, "chaos")),),
    base=FAST,
)


def _warm_faulted_cache(tmp_path, warmth: str) -> str | None:
    if warmth == "cold":
        return None
    root = str(tmp_path / "cache")
    SuiteRunner(FAST_FAULTED, cache=ResultCache(root)).run_suite(SUITE_IDS)
    return root


@pytest.fixture(scope="module")
def serial_faulted_suite_bytes(tmp_path_factory) -> bytes:
    """The reference: the serial backend's chaos-plan SuiteResult."""
    suite = SuiteRunner(
        FAST_FAULTED, backend=SerialBackend()
    ).run_suite(SUITE_IDS)
    return _suite_bytes(suite, tmp_path_factory.mktemp("ref") / "fault.json")


@pytest.fixture(scope="module")
def serial_fault_sweep_bytes(tmp_path_factory) -> bytes:
    """The reference: the serial backend's faults-axis SweepResult."""
    sweep = SweepRunner(backend=SerialBackend()).run(FAULT_SWEEP_SPEC)
    return _sweep_bytes(sweep, tmp_path_factory.mktemp("ref") / "fsweep.json")


class TestFaultMatrix:
    @pytest.mark.parametrize("warmth", ("cold", "prewarmed"))
    @pytest.mark.parametrize("name", BACKENDS)
    def test_faulted_suite_byte_identical(
        self, name, warmth, serial_faulted_suite_bytes, tmp_path
    ):
        cache_dir = _warm_faulted_cache(tmp_path, warmth)
        backend = _make(name)
        suite = SuiteRunner(
            FAST_FAULTED,
            backend=backend,
            cache=ResultCache(cache_dir) if cache_dir else None,
        ).run_suite(SUITE_IDS)
        assert _suite_bytes(suite, tmp_path / "out.json") == \
            serial_faulted_suite_bytes
        if warmth == "prewarmed":
            assert backend.executed == []    # the plan rides the cache key

    @pytest.mark.parametrize("name", BACKENDS)
    def test_fault_sweep_sharded_merge_byte_identical(
        self, name, serial_fault_sweep_bytes, tmp_path
    ):
        shards = [
            SweepRunner(backend=_make(name), shard=(k, 2)).run(
                FAULT_SWEEP_SPEC
            )
            for k in (1, 2)
        ]
        merged = shards[0]
        merged.merge(shards[1])
        assert _sweep_bytes(merged, tmp_path / "out.json") == \
            serial_fault_sweep_bytes

    def test_fault_cells_really_differ(self):
        """The matrix is not vacuous: a chaos cell diverges from its
        baseline and reports the faults it actually fired."""
        sweep = SweepRunner(backend=SerialBackend()).run(FAULT_SWEEP_SPEC)
        for bench_id in FAULT_SWEEP_SPEC.benches:
            base = sweep.get(bench_id, "faults=none")
            chaos = sweep.get(bench_id, "faults=chaos")
            assert base.fault_counters == {}
            assert sum(chaos.fault_counters.values()) > 0
            assert str(base.to_json_dict()) != str(chaos.to_json_dict())


# ----------------------------------------------------------------------
# (g) Boot-sharing axes: grids whose cells differ only in the window
# (duration) or only in the seed.  Sweeps and fleets run their cells in
# plain grid order through every backend; these rows pin that such
# grids still serialise byte-identically and that a partially warm
# cache sends exactly the cold cells, in grid order, to the backend.


#: One benchmark per kind (Android, SPEC) on each axis.
BOOT_AXIS_SWEEPS = {
    "duration": SweepSpec(
        benches=("countdown.main", "999.specrand"),
        axes=(SweepAxis("duration", (0.5, 1.0, 2.0)),),
        base=FAST,
    ),
    "seed": SweepSpec(
        benches=("music.mp3.view", "999.specrand"),
        axes=(SweepAxis("seed", (1, 2, 3, 4)),),
        base=FAST,
    ),
}


def _warm_boot_axis_cache(tmp_path, label: str, warmth: str) -> str | None:
    if warmth == "cold":
        return None
    root = str(tmp_path / "cache")
    spec = BOOT_AXIS_SWEEPS[label]
    if warmth == "partial":
        spec = SweepSpec(benches=spec.benches[:1], axes=spec.axes,
                         base=spec.base)
    SweepRunner(cache=ResultCache(root)).run(spec)
    return root


@pytest.fixture(scope="module")
def serial_boot_axis_refs(tmp_path_factory) -> dict:
    """The serial backend's saved SweepResult per ``BOOT_AXIS_SWEEPS``
    label."""
    refs = {}
    for label, spec in BOOT_AXIS_SWEEPS.items():
        sweep = SweepRunner(backend=SerialBackend()).run(spec)
        refs[label] = _sweep_bytes(
            sweep, tmp_path_factory.mktemp("ref") / f"{label}.json"
        )
    return refs


class TestBootAxisSweepMatrix:
    @pytest.mark.parametrize("warmth", WARMTH)
    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("label", sorted(BOOT_AXIS_SWEEPS))
    def test_byte_identical_across_backends_and_cache_states(
        self, label, name, warmth, serial_boot_axis_refs, tmp_path
    ):
        spec = BOOT_AXIS_SWEEPS[label]
        cache_dir = _warm_boot_axis_cache(tmp_path, label, warmth)
        backend = _make(name)
        sweep = SweepRunner(
            backend=backend,
            cache=ResultCache(cache_dir) if cache_dir else None,
        ).run(spec)
        assert _sweep_bytes(sweep, tmp_path / "out.json") == \
            serial_boot_axis_refs[label]
        cells = len(spec.axes[0].values)
        if warmth == "prewarmed":
            assert backend.executed == []
        elif warmth == "partial":
            assert backend.executed == [spec.benches[1]] * cells
        elif name == "serial":
            # Grid order: every cell of the first benchmark, then the
            # second's.
            assert backend.executed == [
                bench for bench in spec.benches for _ in range(cells)
            ]

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("label", sorted(BOOT_AXIS_SWEEPS))
    def test_sharded_shards_merge_byte_identical(
        self, label, name, serial_boot_axis_refs, tmp_path
    ):
        shards = [
            SweepRunner(backend=_make(name), shard=(k, 2)).run(
                BOOT_AXIS_SWEEPS[label]
            )
            for k in (1, 2)
        ]
        merged = shards[0]
        merged.merge(shards[1])
        assert _sweep_bytes(merged, tmp_path / "out.json") == \
            serial_boot_axis_refs[label]

    @pytest.mark.parametrize("label", sorted(BOOT_AXIS_SWEEPS))
    def test_cells_really_differ(self, label):
        """The rows are not vacuous: every cell of a benchmark is a
        distinct result."""
        spec = BOOT_AXIS_SWEEPS[label]
        sweep = SweepRunner(backend=SerialBackend()).run(spec)
        for bench_id in spec.benches:
            payloads = {
                str(sweep.get(bench_id, variant).to_json_dict())
                for variant in sweep.variants()
            }
            assert len(payloads) == len(spec.axes[0].values)
