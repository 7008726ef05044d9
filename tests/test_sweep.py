"""The parameter-sweep driver.

The contract under test: a sweep grid expands deterministically, runs as
one flat batch on any backend with results identical to a serial run,
reuses the result cache per point (sharing entries with plain suite
runs), and round-trips through JSON.
"""

from __future__ import annotations

import json

import pytest

from repro.calibration import Calibration
from repro.core import (
    PoolBackend,
    ResultCache,
    RunConfig,
    SerialBackend,
    SuiteRunner,
    SweepAxis,
    SweepPoint,
    SweepResult,
    SweepRunner,
    SweepSpec,
    parse_axis,
    shard_ids,
    variant_label,
)
from repro.core.backends import BackendError
from repro.core.results import RunResult
from repro.errors import AnalysisError, ConfigError, WorkloadError
from repro.sim.ticks import millis, seconds

FAST = RunConfig(duration_ticks=millis(400), settle_ticks=millis(200))
BENCHES = ("countdown.main", "999.specrand")


def _sweep_json(result: SweepResult) -> str:
    return json.dumps(result.to_json_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# (a) Axis parsing + validation


class TestAxes:
    def test_parse_axis_jit(self):
        assert parse_axis("jit=on,off").values == (True, False)
        assert parse_axis("jit=true,false").values == (True, False)

    def test_parse_axis_seed_and_duration(self):
        assert parse_axis("seed=1,2,3").values == (1, 2, 3)
        assert parse_axis("duration=0.5,1.0").values == (0.5, 1.0)

    def test_parse_axis_calibration_field(self):
        axis = parse_axis("cal.sf_insts_per_pixel=2.5,5.0")
        assert axis.name == "cal.sf_insts_per_pixel"
        assert axis.values == (2.5, 5.0)

    def test_parse_axis_rejects_garbage(self):
        for bad in ("jit", "=1,2", "seed=", "jit=maybe", "seed=x",
                    "cal.not_a_field=1"):
            with pytest.raises(ConfigError):
                parse_axis(bad)

    def test_parse_axis_cal_preset(self):
        axis = parse_axis("cal.preset=baseline,lowend,highend")
        assert axis.name == "cal.preset"
        assert axis.values == ("baseline", "lowend", "highend")
        with pytest.raises(ConfigError):
            parse_axis("cal.preset=turbo")  # unknown preset name

    def test_axis_validation(self):
        with pytest.raises(ConfigError):
            SweepAxis("jit", ())
        with pytest.raises(ConfigError):
            SweepAxis("seed", (1, 1))
        with pytest.raises(ConfigError):
            SweepAxis("warp", (1, 2))
        with pytest.raises(ConfigError):
            SweepAxis("jit", (1, 0))           # ints are not booleans
        with pytest.raises(ConfigError):
            SweepAxis("duration", (0.0, 1.0))  # zero-length window

    def test_spec_rejects_duplicate_axes_and_empty_benches(self):
        with pytest.raises(ConfigError):
            SweepSpec(benches=BENCHES,
                      axes=(SweepAxis("seed", (1,)), SweepAxis("seed", (2,))))
        with pytest.raises(ConfigError):
            SweepSpec(benches=())


# ----------------------------------------------------------------------
# (b) Grid expansion


class TestExpansion:
    def test_expansion_is_deterministic(self):
        spec = SweepSpec(
            benches=BENCHES,
            axes=(SweepAxis("jit", (True, False)), SweepAxis("seed", (1, 2))),
            base=FAST,
        )
        assert spec.expand() == spec.expand()

    def test_grid_order_and_labels(self):
        spec = SweepSpec(
            benches=BENCHES,
            axes=(SweepAxis("jit", (True, False)), SweepAxis("seed", (7, 8))),
            base=FAST,
        )
        points = spec.expand()
        assert len(points) == 8
        # Benchmark-major, first axis slowest within a benchmark.
        assert [p.label for p in points[:4]] == [
            "countdown.main[jit=on,seed=7]",
            "countdown.main[jit=on,seed=8]",
            "countdown.main[jit=off,seed=7]",
            "countdown.main[jit=off,seed=8]",
        ]
        assert points[2].config.jit_enabled is False
        assert points[3].config.seed == 8

    def test_axes_apply_onto_base(self):
        spec = SweepSpec(
            benches=("countdown.main",),
            axes=(SweepAxis("duration", (0.5,)),
                  SweepAxis("cal.sf_insts_per_pixel", (2.5,))),
            base=FAST,
        )
        (point,) = spec.expand()
        assert point.config.duration_ticks == FAST.duration_ticks // 2
        assert point.config.calibration.sf_insts_per_pixel == 2.5
        # The base config is untouched (frozen dataclass semantics).
        assert FAST.calibration is None

    def test_no_axes_is_the_base_variant(self):
        spec = SweepSpec(benches=BENCHES, base=FAST)
        points = spec.expand()
        assert [p.variant for p in points] == ["base", "base"]
        assert points[0].config == FAST

    def test_cal_preset_axis_applies_device_classes(self):
        from repro.calibration import CAL_PRESETS

        spec = SweepSpec(
            benches=("countdown.main",),
            axes=(SweepAxis("cal.preset", ("baseline", "lowend", "highend")),),
            base=FAST,
        )
        by_variant = {p.variant: p.config for p in spec.expand()}
        # baseline canonicalises to None: same cache key as unswept runs.
        assert by_variant["cal.preset=baseline"].calibration is None
        assert by_variant["cal.preset=lowend"].calibration == \
            CAL_PRESETS["lowend"]
        assert by_variant["cal.preset=highend"].calibration == \
            CAL_PRESETS["highend"]

    def test_cal_preset_composes_with_field_overrides(self):
        # Preset first, then a field refinement of it.
        spec = SweepSpec(
            benches=("countdown.main",),
            axes=(SweepAxis("cal.preset", ("lowend",)),
                  SweepAxis("cal.sql_step_insts", (9_999,))),
            base=FAST,
        )
        (point,) = spec.expand()
        assert point.config.calibration.sql_step_insts == 9_999
        # The rest of the preset bundle survives the refinement.
        assert point.config.calibration.gc_trigger_bytes == 512 * 1024

    def test_duplicate_benches_warn_and_collapse(self):
        spec = SweepSpec(benches=("countdown.main", "countdown.main"),
                         base=FAST)
        with pytest.warns(RuntimeWarning, match="duplicate"):
            assert len(spec.expand()) == 1

    def test_unknown_bench_fails_before_execution(self):
        with pytest.raises(WorkloadError):
            SweepSpec(benches=("not.a.bench",), base=FAST).expand()

    def test_colliding_value_labels_rejected(self):
        """Distinct floats that format identically would silently share a
        (bench, variant) cell — refuse the grid up front instead."""
        spec = SweepSpec(
            benches=("countdown.main",),
            axes=(SweepAxis("duration", (1.0000001, 1.0000002)),),
            base=FAST,
        )
        with pytest.raises(ConfigError, match="both label"):
            spec.expand()

    def test_colliding_configs_rejected(self):
        """Distinct duration factors that clamp to the same tick count
        would yield two identical columns presented as a 0% delta."""
        spec = SweepSpec(
            benches=("countdown.main",),
            axes=(SweepAxis("duration", (1e-9, 1e-10)),),
            base=FAST,
        )
        with pytest.raises(ConfigError, match="identical configs"):
            spec.expand()

    def test_variant_label_formatting(self):
        assert variant_label({"jit": True, "seed": 3}, ["jit", "seed"]) == \
            "jit=on,seed=3"
        assert variant_label({"duration": 0.5}, ["duration"]) == "duration=0.5"
        assert variant_label({}, []) == "base"

    def test_points_shard_like_bench_ids(self):
        spec = SweepSpec(benches=BENCHES,
                         axes=(SweepAxis("seed", (1, 2, 3)),), base=FAST)
        points = spec.expand()
        first = shard_ids(points, 1, 2)
        second = shard_ids(points, 2, 2)
        assert first and second
        assert sorted(p.label for p in first + second) == sorted(
            p.label for p in points
        )
        assert not set(p.label for p in first) & set(p.label for p in second)


# ----------------------------------------------------------------------
# (c) Execution equivalence + cache reuse


class TestSweepExecution:
    SPEC = SweepSpec(
        benches=BENCHES,
        axes=(SweepAxis("jit", (True, False)), SweepAxis("seed", (1, 2))),
        base=FAST,
    )

    def test_interleaved_process_pool_matches_serial(self):
        serial = SweepRunner(backend=SerialBackend()).run(self.SPEC)
        pooled = SweepRunner(backend=PoolBackend(jobs=3)).run(self.SPEC)
        assert _sweep_json(serial) == _sweep_json(pooled)

    def test_grid_runs_as_one_flat_batch(self):
        backend = SerialBackend()
        SweepRunner(backend=backend).run(self.SPEC)
        # Every (bench, variant) cell simulated once: bench ids appear
        # once per variant, in grid order (one batch, no per-config loop).
        assert backend.executed == (
            ["countdown.main"] * 4 + ["999.specrand"] * 4
        )

    def test_progress_reports_each_point(self):
        seen = []
        SweepRunner().run(
            self.SPEC,
            progress=lambda p, secs, res: seen.append((p.label, secs)),
        )
        assert len(seen) == 8
        assert all(secs is not None and secs > 0 for _, secs in seen)

    def test_per_point_cache_reuse_across_invocations(self, tmp_path):
        first = SweepRunner(cache=ResultCache(str(tmp_path)))
        baseline = first.run(self.SPEC)
        assert len(first.backend.executed) == 8

        cache = ResultCache(str(tmp_path))
        second = SweepRunner(cache=cache)
        replay = second.run(self.SPEC)
        assert second.backend.executed == []          # zero new simulations
        assert cache.hits == 8 and cache.misses == 0
        assert _sweep_json(replay) == _sweep_json(baseline)

    def test_enlarged_grid_only_simulates_new_cells(self, tmp_path):
        small = SweepSpec(benches=("countdown.main",),
                          axes=(SweepAxis("seed", (1, 2)),), base=FAST)
        SweepRunner(cache=ResultCache(str(tmp_path))).run(small)

        grown = SweepSpec(benches=("countdown.main",),
                          axes=(SweepAxis("seed", (1, 2, 3)),), base=FAST)
        runner = SweepRunner(cache=ResultCache(str(tmp_path)))
        result = runner.run(grown)
        assert runner.backend.executed == ["countdown.main"]  # seed=3 only
        assert len(result.runs) == 3

    def test_sweep_and_suite_share_cache_entries(self, tmp_path):
        """A sweep point whose config equals a suite run's config hits the
        very same cache entry — the keying is shared, not parallel."""
        SuiteRunner(FAST, cache=ResultCache(str(tmp_path))).run_suite(
            ["countdown.main"]
        )
        spec = SweepSpec(benches=("countdown.main",),
                         axes=(SweepAxis("jit", (True, False)),), base=FAST)
        runner = SweepRunner(cache=ResultCache(str(tmp_path)))
        result = runner.run(spec)
        # jit=on equals the suite's config -> cached; only jit=off runs.
        assert runner.backend.executed == ["countdown.main"]
        assert result.get("countdown.main", "jit=off").total_refs > 0

    def test_backend_shortfall_names_missing_points(self):
        class LossyBackend(SerialBackend):
            name = "lossy"

            def execute_stream(self, items, on_result):
                # Drop the last item silently, never reporting it.
                super().execute_stream(list(items)[:-1], on_result)

        spec = SweepSpec(benches=("countdown.main",),
                         axes=(SweepAxis("seed", (1, 2)),), base=FAST)
        with pytest.raises(BackendError, match=r"countdown\.main\[seed=2\]"):
            SweepRunner(backend=LossyBackend()).run(spec)


# ----------------------------------------------------------------------
# (d) SweepResult serialisation


class TestSweepResultRoundTrip:
    def test_json_round_trip(self, tmp_path):
        spec = SweepSpec(benches=("countdown.main",),
                         axes=(SweepAxis("jit", (True, False)),), base=FAST)
        result = SweepRunner().run(spec)
        path = str(tmp_path / "sweep.json")
        result.save(path)
        loaded = SweepResult.load(path)
        assert _sweep_json(loaded) == _sweep_json(result)
        assert loaded.axes == {"jit": [True, False]}
        assert loaded.variants() == ["jit=on", "jit=off"]
        assert loaded.benches() == ["countdown.main"]
        assert (
            loaded.get("countdown.main", "jit=on").total_refs
            == result.get("countdown.main", "jit=on").total_refs
        )

    def test_missing_cell_raises(self):
        with pytest.raises(AnalysisError):
            SweepResult().get("countdown.main", "base")

    def test_sharded_sweep_merges_back_to_the_full_grid(self):
        from repro.analysis.sweep import axis_table

        spec = SweepSpec(benches=("countdown.main",),
                         axes=(SweepAxis("seed", (1, 2)),), base=FAST)
        full = SweepRunner().run(spec)
        shards = [
            SweepRunner(shard=(k, 2)).run(spec)
            for k in (1, 2)
        ]
        # Each shard holds a strict slice: its delta table has no
        # complete rows (missing cells are dropped, not raised).
        assert all(len(s.runs) == 1 for s in shards)
        assert axis_table(shards[0], "seed").rows == ()
        merged = shards[0]
        merged.merge(shards[1])
        assert _sweep_json(merged) == _sweep_json(full)
        assert axis_table(merged, "seed").rows == axis_table(full, "seed").rows

    def test_merge_restores_bench_order_across_shards(self):
        """A bench whose cells all land in a later shard must still come
        back in canonical grid position after merging (the declared
        bench_ids travel with every shard)."""
        spec = SweepSpec(
            benches=("countdown.main", "999.specrand", "401.bzip2"),
            base=FAST,
        )
        full = SweepRunner().run(spec)
        merged = SweepRunner(shard=(1, 2)).run(spec)
        merged.merge(SweepRunner(shard=(2, 2)).run(spec))
        assert merged.benches() == list(spec.benches)
        assert json.dumps(merged.to_json_dict()) == json.dumps(
            full.to_json_dict()
        )

    def test_merge_rejects_different_specs(self):
        a = SweepRunner().run(
            SweepSpec(benches=("countdown.main",),
                      axes=(SweepAxis("seed", (1,)),), base=FAST)
        )
        b = SweepRunner().run(
            SweepSpec(benches=("countdown.main",),
                      axes=(SweepAxis("seed", (2,)),), base=FAST)
        )
        with pytest.raises(AnalysisError, match="different specs"):
            a.merge(b)


# ----------------------------------------------------------------------
# (e) Per-axis delta tables


def _fake_run(bench_id: str, refs: int) -> RunResult:
    return RunResult(bench_id=bench_id, benchmark_comm=bench_id,
                     duration_ticks=1, seed=0,
                     instr_by_region={"binary": refs})


def _fake_sweep() -> SweepResult:
    result = SweepResult(
        axes={"jit": [True, False], "seed": [1, 2]},
        variant_values={
            "jit=on,seed=1": {"jit": True, "seed": 1},
            "jit=on,seed=2": {"jit": True, "seed": 2},
            "jit=off,seed=1": {"jit": False, "seed": 1},
            "jit=off,seed=2": {"jit": False, "seed": 2},
        },
    )
    result.add("a.bench", "jit=on,seed=1", _fake_run("a.bench", 100))
    result.add("a.bench", "jit=on,seed=2", _fake_run("a.bench", 110))
    result.add("a.bench", "jit=off,seed=1", _fake_run("a.bench", 150))
    result.add("a.bench", "jit=off,seed=2", _fake_run("a.bench", 55))
    return result


class TestSweepAnalysis:
    def test_axis_table_pivots_and_deltas(self):
        from repro.analysis.sweep import axis_table

        table = axis_table(_fake_sweep(), "jit", metric="total_instr")
        assert table.value_labels == ("on", "off")
        assert [row.context for row in table.rows] == ["seed=1", "seed=2"]
        assert table.rows[0].metrics == (100.0, 150.0)
        assert table.rows[0].deltas == (0.0, 50.0)
        assert table.rows[1].deltas == (0.0, -50.0)

    def test_sweep_tables_cover_every_axis(self):
        from repro.analysis.sweep import sweep_tables

        tables = sweep_tables(_fake_sweep())
        assert [t.axis for t in tables] == ["jit", "seed"]

    def test_unknown_axis_and_metric_rejected(self):
        from repro.analysis.sweep import axis_table

        with pytest.raises(AnalysisError):
            axis_table(_fake_sweep(), "warp")
        with pytest.raises(AnalysisError):
            axis_table(_fake_sweep(), "jit", metric="vibes")

    def test_render_sweep_table(self):
        from repro.analysis.render import render_sweep_table
        from repro.analysis.sweep import axis_table

        text = render_sweep_table(axis_table(_fake_sweep(), "jit"))
        assert "Sweep axis 'jit'" in text
        assert "a.bench" in text
        assert "seed=2" in text
        assert "+50.0" in text and "-50.0" in text

    def test_incomplete_rows_are_counted_not_silent(self):
        from repro.analysis.render import render_sweep_table
        from repro.analysis.sweep import axis_table

        partial = _fake_sweep()
        del partial.runs[("a.bench", "jit=off,seed=2")]
        table = axis_table(partial, "jit")
        assert len(table.rows) == 1
        assert table.dropped == 1
        text = render_sweep_table(table)
        assert "1 row dropped" in text and "incomplete grid" in text
        # A complete grid reports nothing.
        full = axis_table(_fake_sweep(), "jit")
        assert full.dropped == 0
        assert "dropped" not in render_sweep_table(full)


# ----------------------------------------------------------------------
# (e2) Sweep-aware claims: paper deltas asserted over the grid


class TestSweepClaims:
    def test_claims_need_a_complete_jit_axis(self):
        from repro.analysis.claims import evaluate_sweep_claims

        with pytest.raises(AnalysisError):
            evaluate_sweep_claims(SweepResult())           # nothing swept
        seeds_only = SweepResult(axes={"seed": [1, 2]}, variant_values={
            "seed=1": {"seed": 1}, "seed=2": {"seed": 2},
        })
        seeds_only.add("a.bench", "seed=1", _fake_run("a.bench", 10))
        with pytest.raises(AnalysisError):
            evaluate_sweep_claims(seeds_only)              # no jit axis

    def test_claims_compare_only_complete_pairs(self):
        """A sharded sweep holding jit=on cells without their jit=off
        partners has no comparable pair and says so."""
        from repro.analysis.claims import evaluate_sweep_claims

        half = SweepResult(axes={"jit": [True, False]}, variant_values={
            "jit=on": {"jit": True}, "jit=off": {"jit": False},
        })
        half.add("a.bench", "jit=on", _fake_run("a.bench", 10))
        with pytest.raises(AnalysisError):
            evaluate_sweep_claims(half)

    def test_jit_collapse_claims_hold_over_a_real_sweep(self):
        """The JIT ablation's paper deltas, measured across every cell
        of a real jit on/off grid: the code-cache region collapses to
        zero with the JIT off, stays visible with it on, and the
        Compiler thread retires."""
        from repro.analysis.claims import evaluate_sweep_claims

        spec = SweepSpec(
            benches=("countdown.main",),
            axes=(SweepAxis("jit", (True, False)),),
            base=RunConfig(duration_ticks=seconds(2),
                           settle_ticks=millis(300)),
        )
        sweep = SweepRunner().run(spec)
        claims = evaluate_sweep_claims(sweep)
        assert [c.claim_id for c in claims] == [
            "sweep-jit-cache-collapse",
            "sweep-jit-cache-present",
            "sweep-jit-compiler-retired",
        ]
        for claim in claims:
            assert claim.holds, claim.describe()
        # The collapse is exact, not merely within tolerance.
        off = sweep.get("countdown.main", "jit=off")
        assert off.instr_by_region.get("dalvik-jit-code-cache", 0) == 0


# ----------------------------------------------------------------------
# (f) CLI wiring


class TestSweepCli:
    ARGV = ["--duration", "0.4", "--settle-ms", "200", "sweep",
            "--axis", "jit=on,off", "--bench", "countdown.main"]

    def test_sweep_parallel_matches_serial_and_reuses_cache(
        self, tmp_path, capsys
    ):
        from repro.__main__ import main

        cache_dir = str(tmp_path / "cache")
        out_a = str(tmp_path / "a.json")
        out_b = str(tmp_path / "b.json")

        argv = self.ARGV + ["--cache", cache_dir, "--progress"]
        assert main(argv + ["--jobs", "2", "--out", out_a]) == 0
        first = capsys.readouterr().out
        assert "cached" not in first
        assert "Sweep axis 'jit'" in first

        assert main(argv + ["--backend", "serial", "--out", out_b]) == 0
        second = capsys.readouterr().out
        assert second.count("cached") == 2      # zero new simulations
        with open(out_a, "rb") as fa, open(out_b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_cache_stats_subcommand(self, tmp_path, capsys):
        from repro.__main__ import main

        cache_dir = str(tmp_path / "cache")
        assert main(self.ARGV + ["--cache", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries: 2" in out
        assert "misses:  2" in out
        assert "hits:    0" in out
        assert "bytes:" in out

    def test_cache_stats_on_missing_dir_is_a_clean_error(
        self, tmp_path, capsys
    ):
        from repro.__main__ import main

        missing = str(tmp_path / "nope")
        assert main(["cache", "stats", missing]) == 2
        assert "no cache directory" in capsys.readouterr().err
        assert not (tmp_path / "nope").exists()   # query stayed read-only

    def test_bad_axis_is_a_clean_error(self, capsys):
        from repro.__main__ import main

        assert main(["sweep", "--axis", "jit=maybe",
                     "--bench", "countdown.main"]) == 2
        assert "jit value" in capsys.readouterr().err

    def test_sweep_without_axes_lists_base_cells(self, capsys):
        from repro.__main__ import main

        assert main(["--duration", "0.4", "--settle-ms", "200", "sweep",
                     "--bench", "countdown.main"]) == 0
        out = capsys.readouterr().out
        assert "[base]" in out

    def test_sweep_shard_outputs_merge_to_the_unsharded_run(self, tmp_path):
        """`sweep --shard K/N` partitions the grid's points; merging the
        shard files reconstitutes the unsharded output byte-for-byte."""
        from repro.__main__ import main

        argv = ["--duration", "0.4", "--settle-ms", "200", "sweep",
                "--axis", "seed=1,2", "--bench", "countdown.main"]
        full = tmp_path / "full.json"
        assert main(argv + ["--out", str(full)]) == 0
        shards = []
        for k in (1, 2):
            out = tmp_path / f"shard{k}.json"
            assert main(argv + ["--shard", f"{k}/2", "--out", str(out)]) == 0
            shards.append(SweepResult.load(str(out)))
        assert all(len(s.runs) == 1 for s in shards)    # strict slices
        merged = shards[0]
        merged.merge(shards[1])
        merged_path = tmp_path / "merged.json"
        merged.save(str(merged_path))
        assert merged_path.read_bytes() == full.read_bytes()

    def test_sweep_bad_shard_spec_is_a_clean_error(self, capsys):
        from repro.__main__ import main

        assert main(["sweep", "--axis", "seed=1,2", "--shard", "3/2",
                     "--bench", "countdown.main"]) == 2
        assert "bad shard spec" in capsys.readouterr().err
