"""The pluggable execution-backend subsystem.

The contract under test: a run is a pure function of (bench id, config),
so both executors — serial and the process pool — and every shard
produce byte-identical results, and the content-addressed cache can
stand in for any of them.
"""

from __future__ import annotations

import json
import os
import pickle

import pytest

from repro.calibration import Calibration
from repro.core import (
    FIGURE_ORDER,
    QUICK_CONFIG,
    BackendError,
    PoolBackend,
    ResultCache,
    RunConfig,
    SerialBackend,
    SuiteRunner,
    make_backend,
    parse_shard,
    shard_ids,
)
from repro.core.backends import pool
from repro.errors import ConfigError, WorkloadError

SUBSET = ["countdown.main", "music.mp3.view", "401.bzip2", "999.specrand"]


def _suite_json(suite) -> str:
    """Normalised JSON for whole-suite comparison."""
    return json.dumps(
        {bid: run.to_json_dict() for bid, run in suite.runs.items()},
        sort_keys=True,
    )


# ----------------------------------------------------------------------
# (a) Backend equivalence


class TestBackendEquivalence:
    def test_serial_and_process_results_are_byte_identical(self):
        serial = SuiteRunner(QUICK_CONFIG, backend=SerialBackend())
        process = SuiteRunner(QUICK_CONFIG, backend=PoolBackend(jobs=4))
        assert _suite_json(serial.run_suite(SUBSET)) == _suite_json(
            process.run_suite(SUBSET)
        )

    def test_process_backend_preserves_submission_order(self):
        runner = SuiteRunner(QUICK_CONFIG, backend=PoolBackend(jobs=3))
        assert runner.run_suite(SUBSET).ids() == SUBSET

    def test_job_count_does_not_change_results(self):
        one = SuiteRunner(QUICK_CONFIG, backend=PoolBackend(jobs=1))
        many = SuiteRunner(QUICK_CONFIG, backend=PoolBackend(jobs=4))
        ids = SUBSET[:2]
        assert _suite_json(one.run_suite(ids)) == _suite_json(many.run_suite(ids))

    def test_progress_fires_per_run_under_both_backends(self):
        for backend in (SerialBackend(), PoolBackend(jobs=2)):
            seen = []
            runner = SuiteRunner(QUICK_CONFIG, backend=backend)
            runner.run_suite(
                SUBSET[:2],
                progress=lambda bid, secs, res: seen.append((bid, secs, res)),
            )
            assert sorted(bid for bid, _, _ in seen) == sorted(SUBSET[:2])
            assert all(secs > 0 for _, secs, _ in seen)
            assert all(res.total_refs > 0 for _, _, res in seen)


# ----------------------------------------------------------------------
# (b) Sharding


class TestSharding:
    def test_shards_exactly_partition_figure_order(self):
        first = shard_ids(FIGURE_ORDER, 1, 2)
        second = shard_ids(FIGURE_ORDER, 2, 2)
        assert set(first) | set(second) == set(FIGURE_ORDER)
        assert not set(first) & set(second)
        assert len(first) + len(second) == len(FIGURE_ORDER)

    def test_shards_preserve_figure_order_within_shard(self):
        for k in (1, 2, 3):
            owned = shard_ids(FIGURE_ORDER, k, 3)
            positions = [FIGURE_ORDER.index(i) for i in owned]
            assert positions == sorted(positions)

    def test_single_shard_is_the_whole_suite(self):
        assert shard_ids(FIGURE_ORDER, 1, 1) == FIGURE_ORDER

    def test_sharded_runner_runs_only_its_slice(self):
        runner = SuiteRunner(QUICK_CONFIG, shard=(2, 2))
        suite = runner.run_suite(SUBSET)
        assert suite.ids() == list(shard_ids(SUBSET, 2, 2))
        assert runner.backend.executed == list(shard_ids(SUBSET, 2, 2))

    def test_parse_shard(self):
        assert parse_shard("1/4") == (1, 4)
        assert parse_shard("4/4") == (4, 4)
        for bad in ("0/4", "5/4", "x/4", "3", "1/0"):
            with pytest.raises(ConfigError):
                parse_shard(bad)

    def test_invalid_shard_rejected(self):
        with pytest.raises(ConfigError):
            SuiteRunner(QUICK_CONFIG, shard=(3, 2)).run_suite(SUBSET)
        with pytest.raises(ConfigError):
            shard_ids(FIGURE_ORDER, 0, 2)

    def test_warm_cache_does_not_shift_the_partition(self, tmp_path):
        """The shard plan is made before cache filtering: with one result
        already cached, concurrent shards must still collectively execute
        every remaining benchmark exactly once."""
        SuiteRunner(QUICK_CONFIG, cache=ResultCache(str(tmp_path))).run_suite(
            SUBSET[:1]
        )
        suites = []
        for k in (1, 2):
            runner = SuiteRunner(
                QUICK_CONFIG,
                cache=ResultCache(str(tmp_path)),
                shard=(k, 2),
            )
            suites.append(runner.run_suite(SUBSET))
        covered = [bid for s in suites for bid in s.ids()]
        assert sorted(covered) == sorted(SUBSET)


# ----------------------------------------------------------------------
# (b2) Pool plumbing (cross-backend equivalence lives in
# test_backend_equivalence.py)


def _discard(index, elapsed, result) -> None:
    """An ``on_result`` for tests that only look at side effects."""


class TestPoolBackend:
    def test_window_defaults_to_twice_jobs(self):
        assert PoolBackend(jobs=3).window == 6

    def test_adaptive_window_stays_within_bounds(self):
        backend = PoolBackend(jobs=2)
        runner = SuiteRunner(QUICK_CONFIG, backend=backend)
        suite = runner.run_suite(SUBSET[:3])
        assert suite.ids() == SUBSET[:3]
        # The window adapted from observed result sizes, but never left
        # [jobs, WINDOW_MAX_FACTOR * jobs].
        assert backend._avg_result_bytes is not None
        assert backend.jobs <= backend.window <= \
            pool.WINDOW_MAX_FACTOR * backend.jobs

    def test_adaptive_window_shrinks_for_huge_results(self):
        from repro.core.results import RunResult

        backend = PoolBackend(jobs=2)
        gate = pool._InflightGate(backend.window)
        # A result pickling to more than half the budget forces the
        # window down to its floor (the job count)...
        fat = RunResult(
            bench_id="x", benchmark_comm="x", duration_ticks=1, seed=0,
            meta={"pad": "y" * pool.WINDOW_TARGET_BYTES},
        )
        backend._observe(fat, gate)
        assert backend.window == backend.jobs
        # ... and a stream of tiny results grows it back toward the cap
        # as the moving average decays.
        tiny = RunResult(
            bench_id="x", benchmark_comm="x", duration_ticks=1, seed=0
        )
        for _ in range(40):
            backend._observe(tiny, gate)
        assert backend.window > backend.jobs

    def test_inflight_gate_resize_admits_waiters(self):
        import threading

        gate = pool._InflightGate(1)
        gate.acquire()
        admitted = threading.Event()

        def second():
            gate.acquire()
            admitted.set()

        thread = threading.Thread(target=second)
        thread.start()
        assert not admitted.wait(0.05)      # blocked at the old limit
        gate.resize(2)
        assert admitted.wait(2.0)           # widened bound lets it in
        thread.join()

    def test_empty_stream_is_a_noop(self):
        backend = PoolBackend(jobs=2)
        backend.execute_stream([], _discard)
        assert backend.executed == []

    def test_fully_cached_stream_never_starts_a_pool(
        self, tmp_path, monkeypatch
    ):
        """A replay the cache serves in full forks no worker: the pool
        is only built once the stream yields its first miss."""
        baseline = SuiteRunner(
            QUICK_CONFIG, cache=ResultCache(str(tmp_path))
        ).run_suite(SUBSET[:2])

        def no_pool(*args, **kwargs):
            raise AssertionError("a fully cached stream started a pool")

        monkeypatch.setattr(pool, "ProcessPoolExecutor", no_pool)
        backend = PoolBackend(jobs=2)
        replay = SuiteRunner(
            QUICK_CONFIG, backend=backend, cache=ResultCache(str(tmp_path))
        ).run_suite(SUBSET[:2])
        assert backend.executed == []
        assert _suite_json(replay) == _suite_json(baseline)

    def test_tight_window_still_completes_in_order(self, monkeypatch):
        # A one-byte budget pins the adaptive window to its floor (jobs).
        monkeypatch.setattr(pool, "WINDOW_TARGET_BYTES", 1)
        backend = PoolBackend(jobs=1)
        runner = SuiteRunner(QUICK_CONFIG, backend=backend)
        assert runner.run_suite(SUBSET[:3]).ids() == SUBSET[:3]
        assert backend.window == 1

    def test_worker_failure_propagates_and_stops_the_stream(
        self, monkeypatch
    ):
        monkeypatch.setattr(pool, "WINDOW_TARGET_BYTES", 1)
        backend = PoolBackend(jobs=1)
        with pytest.raises(WorkloadError, match="unknown benchmark"):
            backend.execute_stream(
                [("no.such.bench", QUICK_CONFIG)]
                + [("countdown.main", QUICK_CONFIG)] * 8,
                _discard,
            )
        # The bounded window plus the failure stop keep most of the tail
        # from ever being submitted.
        assert len(backend.executed) < 8

    def test_executed_tracks_only_real_simulations(self, tmp_path):
        SuiteRunner(QUICK_CONFIG, cache=ResultCache(str(tmp_path))).run_suite(
            SUBSET[:1]
        )
        backend = PoolBackend(jobs=2)
        SuiteRunner(
            QUICK_CONFIG, backend=backend, cache=ResultCache(str(tmp_path))
        ).run_suite(SUBSET[:2])
        assert backend.executed == [SUBSET[1]]


# ----------------------------------------------------------------------
# (c) Result cache


class TestResultCache:
    def test_second_run_hits_and_skips_simulation(self, tmp_path):
        first = SuiteRunner(QUICK_CONFIG, cache=ResultCache(str(tmp_path)))
        baseline = first.run_suite(SUBSET[:2])
        assert first.backend.executed == SUBSET[:2]

        cache = ResultCache(str(tmp_path))
        second = SuiteRunner(QUICK_CONFIG, cache=cache)
        replay = second.run_suite(SUBSET[:2])
        assert second.backend.executed == []          # zero new simulations
        assert cache.hits == 2 and cache.misses == 0
        assert _suite_json(replay) == _suite_json(baseline)

    def test_config_change_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        SuiteRunner(QUICK_CONFIG, cache=cache).run_suite(SUBSET[:1])
        changed = SuiteRunner(QUICK_CONFIG.scaled(0.5), cache=cache)
        changed.run_suite(SUBSET[:1])
        assert changed.backend.executed == SUBSET[:1]
        assert len(cache) == 2

    def test_key_covers_every_knob(self):
        base = QUICK_CONFIG
        variants = [
            base.scaled(2.0),
            RunConfig(duration_ticks=base.duration_ticks,
                      settle_ticks=base.settle_ticks, seed=base.seed + 1),
            RunConfig(duration_ticks=base.duration_ticks,
                      settle_ticks=base.settle_ticks, jit_enabled=False),
            RunConfig(duration_ticks=base.duration_ticks,
                      settle_ticks=base.settle_ticks,
                      calibration=Calibration().scaled(2.0)),
        ]
        keys = {ResultCache.key("countdown.main", cfg)
                for cfg in [base] + variants}
        assert len(keys) == len(variants) + 1
        assert ResultCache.key("doom.main", base) != ResultCache.key(
            "countdown.main", base
        )

    def test_corrupt_entry_is_a_miss_and_is_deleted(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        path = tmp_path / (ResultCache.key(SUBSET[0], QUICK_CONFIG) + ".json")
        path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="corrupt cache entry"):
            assert cache.get(SUBSET[0], QUICK_CONFIG) is None
        assert cache.misses == 1
        # The bad file is gone, so the next put() heals this key for good.
        assert not path.exists()

    def test_valid_json_wrong_shape_is_discarded(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        path = tmp_path / (ResultCache.key(SUBSET[0], QUICK_CONFIG) + ".json")
        path.write_text('{"bench_id": "half-written"}')
        with pytest.warns(RuntimeWarning, match="corrupt cache entry"):
            assert cache.get(SUBSET[0], QUICK_CONFIG) is None
        assert not path.exists()

    def test_stale_tmp_files_are_swept_on_open(self, tmp_path):
        key = ResultCache.key(SUBSET[0], QUICK_CONFIG)
        dead = tmp_path / f"{key}.json.tmp.999999999"
        dead.write_text("{")
        alive = tmp_path / f"{key}.json.tmp.{os.getpid()}"
        alive.write_text("{")
        foreign = tmp_path / "notes.tmp.bak"
        foreign.write_text("mine")
        ResultCache(str(tmp_path))
        assert not dead.exists()          # writer long gone
        assert alive.exists()             # in-flight writer is left alone
        assert foreign.exists()           # not our naming -> not our file

    def test_progress_distinguishes_cache_hits_from_fast_runs(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        SuiteRunner(QUICK_CONFIG, cache=cache).run_suite(SUBSET[:1])
        seen = []
        SuiteRunner(QUICK_CONFIG, cache=ResultCache(str(tmp_path))).run_suite(
            SUBSET[:1],
            progress=lambda bid, secs, res: seen.append((bid, secs)),
        )
        assert seen == [(SUBSET[0], None)]   # None = cached, not elapsed==0

    def test_cache_stats_persist_across_instances(self, tmp_path):
        SuiteRunner(QUICK_CONFIG, cache=ResultCache(str(tmp_path))).run_suite(
            SUBSET[:2]
        )
        SuiteRunner(QUICK_CONFIG, cache=ResultCache(str(tmp_path))).run_suite(
            SUBSET[:2]
        )
        stats = ResultCache(str(tmp_path)).stats()
        assert stats.entries == 2
        assert stats.total_bytes > 0
        assert stats.hits == 2            # second invocation's hits
        assert stats.misses == 2          # first invocation's misses
        # The stats file itself never counts as an entry.
        assert len(ResultCache(str(tmp_path))) == 2


# ----------------------------------------------------------------------
# (c2) Cache GC


def _plant_entry(cache: ResultCache, bench_id: str, mtime: float,
                 pad: int = 0) -> str:
    """Store a fabricated run and backdate its file to *mtime*."""
    from repro.core import RunResult

    run = RunResult(bench_id=bench_id, benchmark_comm=bench_id,
                    duration_ticks=1, seed=0,
                    instr_by_region={"binary": 1},
                    meta={"pad": "x" * pad})
    cache.put(bench_id, QUICK_CONFIG, run)
    path = os.path.join(cache.root, ResultCache.key(bench_id, QUICK_CONFIG)
                        + ".json")
    os.utime(path, (mtime, mtime))
    return path


class TestCacheGc:
    def test_max_age_evicts_only_the_old(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        old = _plant_entry(cache, "countdown.main", mtime=100.0)
        new = _plant_entry(cache, "999.specrand", mtime=280.0)
        report = cache.gc(max_age=50.0, now=300.0)
        assert not os.path.exists(old) and os.path.exists(new)
        assert report.removed_entries == 1 and report.kept_entries == 1
        assert report.removed_bytes > 0

    def test_max_bytes_evicts_oldest_first(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        paths = [
            _plant_entry(cache, bid, mtime=float(100 * (i + 1)))
            for i, bid in enumerate(
                ["countdown.main", "999.specrand", "401.bzip2"]
            )
        ]
        newest_size = os.path.getsize(paths[2])
        report = cache.gc(max_bytes=newest_size + 1)
        # Evicted in mtime order until the newest alone fits.
        assert not os.path.exists(paths[0])
        assert not os.path.exists(paths[1])
        assert os.path.exists(paths[2])
        assert report.removed_entries == 2 and report.kept_entries == 1
        assert report.kept_bytes == newest_size

    def test_both_bounds_compose(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        _plant_entry(cache, "countdown.main", mtime=10.0)
        _plant_entry(cache, "999.specrand", mtime=200.0)
        _plant_entry(cache, "401.bzip2", mtime=290.0)
        report = cache.gc(max_bytes=0, max_age=150.0, now=300.0)
        assert report.removed_entries == 3 and report.kept_entries == 0
        assert len(cache) == 0

    def test_no_bounds_is_a_noop(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        _plant_entry(cache, "countdown.main", mtime=1.0)
        report = cache.gc()
        assert report.removed_entries == 0 and report.kept_entries == 1
        assert len(cache) == 1

    def test_max_entries_keeps_only_the_newest(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        paths = [
            _plant_entry(cache, bid, mtime=float(100 * (i + 1)))
            for i, bid in enumerate(
                ["countdown.main", "999.specrand", "401.bzip2"]
            )
        ]
        report = cache.gc(max_entries=1)
        assert not os.path.exists(paths[0])
        assert not os.path.exists(paths[1])
        assert os.path.exists(paths[2])
        assert report.removed_entries == 2 and report.kept_entries == 1
        # Already within the bound: a repeat pass is a no-op.
        repeat = cache.gc(max_entries=1)
        assert repeat.removed_entries == 0 and repeat.kept_entries == 1

    def test_dry_run_reports_without_deleting(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        paths = [
            _plant_entry(cache, bid, mtime=float(100 * (i + 1)))
            for i, bid in enumerate(["countdown.main", "999.specrand"])
        ]
        preview = cache.gc(max_bytes=0, dry_run=True)
        assert preview.removed_entries == 2 and preview.kept_entries == 0
        assert preview.removed_bytes > 0
        assert all(os.path.exists(p) for p in paths)   # nothing touched
        # The real pass then evicts exactly what the preview promised.
        real = cache.gc(max_bytes=0)
        assert real.removed_entries == preview.removed_entries
        assert real.removed_bytes == preview.removed_bytes
        assert len(cache) == 0

    def test_equal_age_prefers_least_recently_used(self, tmp_path):
        """Among entries of the same mtime, the never-hit ones go first:
        a warm entry outlives cold ones written in the same batch."""
        cache = ResultCache(str(tmp_path))
        planted = {
            bid: _plant_entry(cache, bid, mtime=100.0)
            for bid in ("countdown.main", "999.specrand", "401.bzip2")
        }
        assert cache.get("999.specrand", QUICK_CONFIG) is not None  # warm it
        report = cache.gc(max_entries=1)
        assert report.removed_entries == 2
        assert os.path.exists(planted["999.specrand"])
        assert not os.path.exists(planted["countdown.main"])
        assert not os.path.exists(planted["401.bzip2"])

    def test_lru_order_breaks_ties_among_hit_entries(self, tmp_path):
        """Two warm entries of equal age: the one hit longer ago is
        evicted first."""
        cache = ResultCache(str(tmp_path))
        first = _plant_entry(cache, "countdown.main", mtime=100.0)
        second = _plant_entry(cache, "999.specrand", mtime=100.0)
        name_first = os.path.basename(first)
        name_second = os.path.basename(second)
        # Control the timestamps directly: first hit long ago, second
        # recently.
        cache._session_last_hits[name_first] = 1_000.0
        cache._session_last_hits[name_second] = 2_000.0
        report = cache.gc(max_entries=1)
        assert report.removed_entries == 1
        assert not os.path.exists(first)
        assert os.path.exists(second)

    def test_last_hit_timestamps_persist_in_stats_file(self, tmp_path):
        """Hits recorded in one process steer eviction in a later one:
        the per-entry timestamps ride the stats file."""
        import json as _json

        cache = ResultCache(str(tmp_path))
        planted = {
            bid: _plant_entry(cache, bid, mtime=100.0)
            for bid in ("countdown.main", "999.specrand")
        }
        assert cache.get("999.specrand", QUICK_CONFIG) is not None
        cache.flush_stats()
        with open(tmp_path / ResultCache.STATS_FILE, encoding="utf-8") as fh:
            raw = _json.load(fh)
        warm_name = os.path.basename(planted["999.specrand"])
        assert warm_name in raw["last_hit"]
        assert os.path.basename(planted["countdown.main"]) not in raw["last_hit"]

        fresh = ResultCache(str(tmp_path))
        report = fresh.gc(max_entries=1)
        assert report.removed_entries == 1
        assert os.path.exists(planted["999.specrand"])
        assert not os.path.exists(planted["countdown.main"])

    def test_flush_prunes_last_hits_of_evicted_entries(self, tmp_path):
        """The stats file's last-hit map cannot grow without bound: a
        flush drops records of entries no longer on disk."""
        import json as _json

        cache = ResultCache(str(tmp_path))
        _plant_entry(cache, "countdown.main", mtime=100.0)
        assert cache.get("countdown.main", QUICK_CONFIG) is not None
        cache.flush_stats()
        cache.gc(max_bytes=0)
        # A later hit/miss forces another flush; the evicted entry's
        # record must not survive it.
        assert cache.get("countdown.main", QUICK_CONFIG) is None  # miss
        cache.flush_stats()
        with open(tmp_path / ResultCache.STATS_FILE, encoding="utf-8") as fh:
            raw = _json.load(fh)
        assert raw["last_hit"] == {}
        assert raw["misses"] >= 1

    def test_gc_preserves_stats_and_foreign_files(self, tmp_path):
        """Eviction removes run entries only: the persisted hit/miss
        counters and files the cache does not own survive untouched."""
        runner = SuiteRunner(QUICK_CONFIG, cache=ResultCache(str(tmp_path)))
        runner.run_suite(SUBSET[:2])
        SuiteRunner(QUICK_CONFIG, cache=ResultCache(str(tmp_path))).run_suite(
            SUBSET[:2]
        )  # two hits, persisted on flush
        foreign = tmp_path / "notes.txt"
        foreign.write_text("mine")
        # A user parking a results file in the cache dir must never see
        # gc eat it — .json alone does not make a file a cache entry.
        parked = tmp_path / "suite.json"
        parked.write_text("{}")

        cache = ResultCache(str(tmp_path))
        assert len(cache) == 2                         # parked not counted
        report = cache.gc(max_bytes=0)
        assert report.removed_entries == 2
        stats = cache.stats()
        assert stats.entries == 0 and stats.total_bytes == 0
        assert stats.hits == 2 and stats.misses == 2   # counters survive
        assert foreign.exists()
        assert parked.exists()
        assert (tmp_path / ResultCache.STATS_FILE).exists()

    def test_failed_unlink_is_reported_as_kept(self, tmp_path, monkeypatch):
        """An entry gc cannot delete is still on disk, so the report must
        count it as kept — never as removed, never as vanished."""
        cache = ResultCache(str(tmp_path))
        stuck = _plant_entry(cache, "countdown.main", mtime=10.0)
        gone = _plant_entry(cache, "999.specrand", mtime=20.0)
        real_unlink = os.unlink

        def unlink(path, *args, **kwargs):
            if path == stuck:
                raise OSError("device busy")
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "unlink", unlink)
        report = cache.gc(max_bytes=0)
        assert report.removed_entries == 1
        assert report.kept_entries == 1
        assert report.kept_bytes == os.path.getsize(stuck)
        assert os.path.exists(stuck) and not os.path.exists(gone)

    def test_evicted_key_is_a_miss_then_heals(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        SuiteRunner(QUICK_CONFIG, cache=cache).run_suite(SUBSET[:1])
        cache.gc(max_bytes=0)
        runner = SuiteRunner(QUICK_CONFIG, cache=cache)
        runner.run_suite(SUBSET[:1])
        assert runner.backend.executed == SUBSET[:1]   # re-simulated
        assert len(cache) == 1                         # and stored again


# ----------------------------------------------------------------------
# (d) Config / calibration serialisation


class TestSerialisation:
    def test_calibration_pickle_round_trip(self):
        cal = Calibration().scaled(1.7)
        assert pickle.loads(pickle.dumps(cal)) == cal

    def test_run_config_pickle_round_trip(self):
        cfg = RunConfig(seed=77, jit_enabled=False,
                        calibration=Calibration().scaled(0.5))
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    def test_run_config_json_round_trip(self):
        cfg = RunConfig(seed=9, calibration=Calibration().scaled(3.0))
        raw = json.loads(json.dumps(cfg.to_json_dict()))
        assert RunConfig.from_json_dict(raw) == cfg
        plain = RunConfig(seed=9)
        assert RunConfig.from_json_dict(plain.to_json_dict()) == plain

    def test_calibration_override_reaches_workers(self):
        """A scaled calibration must change results *through* the pool."""
        hot = QUICK_CONFIG
        cold = RunConfig(duration_ticks=hot.duration_ticks,
                         settle_ticks=hot.settle_ticks,
                         calibration=Calibration().scaled(4.0))
        backend = PoolBackend(jobs=2)
        runner = SuiteRunner(hot, backend=backend)
        base = runner.run_suite(["doom.main"]).get("doom.main")
        scaled = runner.run_suite(["doom.main"], config=cold).get("doom.main")
        assert scaled.total_refs != base.total_refs


# ----------------------------------------------------------------------
# Dedup + backend factory


class TestRunnerOrchestration:
    def test_duplicate_ids_run_once_and_warn(self):
        runner = SuiteRunner(QUICK_CONFIG)
        with pytest.warns(RuntimeWarning, match="duplicate"):
            suite = runner.run_suite(["countdown.main", "999.specrand",
                                      "countdown.main"])
        assert suite.ids() == ["countdown.main", "999.specrand"]
        assert runner.backend.executed == ["countdown.main", "999.specrand"]

    def test_make_backend_selection(self):
        assert isinstance(make_backend(None, jobs=1), SerialBackend)
        assert isinstance(make_backend(None, jobs=4), PoolBackend)
        assert isinstance(make_backend("serial", jobs=1), SerialBackend)
        assert isinstance(make_backend("process", jobs=2), PoolBackend)
        for name, jobs in ((None, 0), (None, -3), ("async", 0),
                           ("serial", 4)):
            with pytest.raises(ConfigError):
                make_backend(name, jobs=jobs)
        with pytest.raises(BackendError):
            make_backend("gpu")

    def test_make_backend_async(self):
        backend = make_backend("async", jobs=3)
        assert isinstance(backend, PoolBackend)
        assert backend.jobs == 3 and backend.window == 6

    def test_process_backend_rejects_zero_jobs(self):
        with pytest.raises(BackendError):
            PoolBackend(jobs=0)

    def test_backend_shortfall_raises_naming_the_missing(self):
        """A backend that silently loses results (crashed pool worker)
        must surface as a BackendError naming the missing bench ids, not
        a bare KeyError during result assembly."""

        class LossyBackend(SerialBackend):
            name = "lossy"

            def execute_stream(self, items, on_result):
                super().execute_stream(list(items)[:-1], on_result)

        runner = SuiteRunner(QUICK_CONFIG, backend=LossyBackend())
        with pytest.raises(BackendError, match="999.specrand"):
            runner.run_suite(["countdown.main", "999.specrand"])

    def test_execute_stream_mixes_configs_in_one_stream(self):
        """The stream carries a config per item, so one call can execute
        the same benchmark under different configs."""
        backend = SerialBackend()
        cold = QUICK_CONFIG
        hot = RunConfig(duration_ticks=cold.duration_ticks // 2,
                        settle_ticks=cold.settle_ticks)
        results = {}
        backend.execute_stream(
            [("countdown.main", cold), ("countdown.main", hot)],
            lambda i, secs, res: results.setdefault(i, res),
        )
        assert sorted(results) == [0, 1]
        assert results[0].duration_ticks == cold.duration_ticks
        assert results[1].duration_ticks == hot.duration_ticks


# ----------------------------------------------------------------------
# CLI wiring


class TestCli:
    def test_suite_jobs_cache_progress(self, tmp_path, capsys):
        from repro.__main__ import main

        cache_dir = str(tmp_path / "cache")
        argv = ["--duration", "0.4", "--settle-ms", "200", "suite",
                "--jobs", "2", "--cache", cache_dir, "--progress",
                "--bench", "countdown.main", "--bench", "999.specrand"]
        assert main(argv + ["--out", str(tmp_path / "a.json")]) == 0
        first = capsys.readouterr().out
        assert "countdown.main" in first and "cached" not in first

        assert main(argv + ["--out", str(tmp_path / "b.json")]) == 0
        second = capsys.readouterr().out
        assert second.count("cached") == 2
        assert (tmp_path / "a.json").read_bytes() == (
            tmp_path / "b.json"
        ).read_bytes()

    def test_suite_shard_flag(self, capsys):
        from repro.__main__ import main

        argv = ["--duration", "0.4", "--settle-ms", "200", "suite",
                "--shard", "1/2",
                "--bench", "countdown.main", "--bench", "999.specrand"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "countdown.main" in out and "999.specrand" not in out

    def test_bad_shard_spec_is_a_clean_error(self, capsys):
        from repro.__main__ import main

        assert main(["suite", "--shard", "0/2", "--bench",
                     "countdown.main"]) == 2
        assert "bad shard spec" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--jobs", "0"], "--jobs must be >= 1, got 0"),
        (["--jobs", "-3"], "--jobs must be >= 1, got -3"),
        (["--backend", "serial", "--jobs", "4"], "cannot use --jobs 4"),
    ], ids=["jobs-zero", "jobs-negative", "serial-with-jobs"])
    @pytest.mark.parametrize("command", [
        "suite", "sweep", "faults", "fleet", "figures", "table1", "claims",
        "smp",
    ])
    def test_unusable_jobs_is_a_clean_error(
        self, command, flags, message, capsys
    ):
        """--jobs is never silently clamped or ignored: on every command
        that may run benchmarks, a value no backend can honour exits 2
        with a named error before any run."""
        from repro.__main__ import main

        target = {
            "suite": ["--bench", "countdown.main"],
            "sweep": ["--bench", "countdown.main"],
            "faults": ["--bench", "countdown.main"],
            "fleet": ["--devices", "2"],
        }.get(command, [])
        assert main([command, *target, *flags]) == 2
        assert message in capsys.readouterr().err

    def test_artifact_commands_reject_shard(self):
        """Figures/table1/claims over a partial suite would be silently
        wrong, so --shard stays off them (suite, sweep and fleet only)."""
        from repro.__main__ import main

        for command in ("figures", "table1", "claims"):
            with pytest.raises(SystemExit):
                main([command, "--shard", "1/2"])

    def test_suite_async_backend_matches_serial_bytes(self, tmp_path):
        from repro.__main__ import main

        base = ["--duration", "0.4", "--settle-ms", "200", "suite",
                "--bench", "countdown.main", "--bench", "999.specrand"]
        a, b = str(tmp_path / "async.json"), str(tmp_path / "serial.json")
        assert main(base + ["--backend", "async", "--jobs", "2",
                            "--out", a]) == 0
        assert main(base + ["--backend", "serial", "--out", b]) == 0
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_cache_gc_cli(self, tmp_path, capsys):
        from repro.__main__ import main

        cache_dir = str(tmp_path / "cache")
        argv = ["--duration", "0.4", "--settle-ms", "200", "suite",
                "--cache", cache_dir,
                "--bench", "countdown.main", "--bench", "999.specrand"]
        assert main(argv) == 0
        capsys.readouterr()

        assert main(["cache", "gc", cache_dir, "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "evicted: 2 entries" in out
        assert "kept:    0 entries" in out

        assert main(["cache", "stats", cache_dir]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_cache_gc_cli_dry_run_and_max_entries(self, tmp_path, capsys):
        from repro.__main__ import main

        cache_dir = str(tmp_path / "cache")
        argv = ["--duration", "0.4", "--settle-ms", "200", "suite",
                "--cache", cache_dir,
                "--bench", "countdown.main", "--bench", "999.specrand"]
        assert main(argv) == 0
        capsys.readouterr()

        # Dry run previews the eviction without touching the entries.
        assert main(["cache", "gc", cache_dir, "--max-entries", "1",
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would evict: 1 entries" in out
        assert main(["cache", "stats", cache_dir]) == 0
        assert "entries: 2" in capsys.readouterr().out

        # The real pass keeps exactly the newest entry.
        assert main(["cache", "gc", cache_dir, "--max-entries", "1"]) == 0
        assert "evicted: 1 entries" in capsys.readouterr().out
        assert main(["cache", "stats", cache_dir]) == 0
        assert "entries: 1" in capsys.readouterr().out

    def test_cache_gc_requires_a_bound_and_an_existing_dir(
        self, tmp_path, capsys
    ):
        from repro.__main__ import main

        missing = str(tmp_path / "nope")
        assert main(["cache", "gc", missing, "--max-bytes", "0"]) == 2
        assert "no cache directory" in capsys.readouterr().err
        assert not (tmp_path / "nope").exists()     # gc stayed read-only

        present = tmp_path / "cache"
        present.mkdir()
        assert main(["cache", "gc", str(present)]) == 2
        assert "--max-bytes, --max-age and/or --max-entries" in \
            capsys.readouterr().err
