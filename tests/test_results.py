"""RunResult / SuiteResult serialisation and determinism."""

import errno
import io
import json
import os
import warnings

import pytest

from repro.core import QUICK_CONFIG, RunConfig, SuiteRunner
from repro.core import results as results_module
from repro.core.fleet import FleetResult
from repro.core.results import ResultCache, RunResult, SuiteResult
from repro.core.stats import SketchSet
from repro.core.sweep import SweepResult
from repro.errors import AnalysisError
from repro.sim.ticks import millis


def test_json_roundtrip(quick_suite):
    run = quick_suite.get("countdown.main")
    clone = RunResult.from_json_dict(run.to_json_dict())
    assert clone.instr_by_region == run.instr_by_region
    assert clone.refs_by_thread == run.refs_by_thread
    assert clone.bench_id == run.bench_id
    assert clone.meta == run.meta


def test_suite_save_load(tmp_path, quick_suite):
    path = str(tmp_path / "suite.json")
    quick_suite.save(path)
    loaded = SuiteResult.load(path)
    assert set(loaded.ids()) == set(quick_suite.ids())
    for bid in quick_suite.ids():
        assert loaded.get(bid).total_refs == quick_suite.get(bid).total_refs


def _outputs(runs: "list[RunResult]") -> dict:
    """A suite, a sweep and a fleet result built from *runs*: the three
    kinds of ``--out`` file."""
    suite, sweep, sketches = SuiteResult(), SweepResult(), SketchSet()
    for run in runs:
        suite.add(run)
        sweep.bench_ids.append(run.bench_id)
        sweep.add(run.bench_id, "base", run)
        sketches.observe(run.bench_id, run)
    fleet = FleetResult(spec={}, spec_digest="0", devices=len(runs),
                        units_total=len(runs), devices_done=len(runs),
                        population={}, sketches=sketches)
    return {"suite": suite, "sweep": sweep, "fleet": fleet}


@pytest.mark.parametrize("kind", ["suite", "sweep", "fleet"])
def test_torn_save_keeps_the_previous_file(tmp_path, monkeypatch,
                                           quick_suite, kind):
    """A write that fails partway (here: disk full after half the bytes)
    must leave the previous ``--out`` file intact and no tmp file."""
    out = _outputs([quick_suite.get(b) for b in quick_suite.ids()])[kind]
    path = tmp_path / "out.json"
    path.write_bytes(b"previous good output")

    class FullDisk(io.StringIO):
        def write(self, text: str) -> int:
            with open(self.target, "w", encoding="utf-8") as fh:
                fh.write(text[: len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    def torn_open(file, mode="r", **kwargs):
        handle = FullDisk()
        handle.target = file
        return handle

    monkeypatch.setattr(results_module, "open", torn_open, raising=False)
    with pytest.raises(OSError, match="No space"):
        out.save(str(path))
    assert path.read_bytes() == b"previous good output"
    assert sorted(os.listdir(tmp_path)) == ["out.json"]


def test_saved_bytes_match_the_pure_python_encoder(tmp_path, quick_suite):
    """Output is written with ``json.dumps`` (the C encoder); it must be
    byte-identical to what ``json.dump`` (pure Python) wrote before."""
    outputs = _outputs([quick_suite.get(b) for b in quick_suite.ids()])
    run = quick_suite.get("music.mp3.view")
    cache = ResultCache(str(tmp_path / "cache"))
    cache.put(run.bench_id, QUICK_CONFIG, run)
    written = {
        kind: tmp_path / f"{kind}.json" for kind in outputs
    }
    for kind, out in outputs.items():
        out.save(str(written[kind]))
    written["entry"] = tmp_path / "cache" / os.path.basename(
        cache._path(run.bench_id, QUICK_CONFIG))
    expected = {
        "suite": ({b: r.to_json_dict() for b, r in quick_suite.runs.items()},
                  False),
        "sweep": (outputs["sweep"].to_json_dict(), False),
        "fleet": (outputs["fleet"].to_json_dict(), True),
        "entry": (run.to_json_dict(), False),
    }
    for kind, (payload, sort_keys) in expected.items():
        pure = io.StringIO()
        json.dump(payload, pure, sort_keys=sort_keys)
        assert written[kind].read_text(encoding="utf-8") == pure.getvalue(), \
            kind


def test_subset_errors_on_missing(quick_suite):
    with pytest.raises(AnalysisError):
        quick_suite.subset(["not.a.benchmark"])


def test_same_seed_same_result():
    config = RunConfig(duration_ticks=millis(500), settle_ticks=millis(200), seed=5)
    runner = SuiteRunner(config)
    a = runner.run("countdown.main")
    b = runner.run("countdown.main")
    assert a.instr_by_region == b.instr_by_region
    assert a.refs_by_thread == b.refs_by_thread


def test_different_seed_different_result():
    runner = SuiteRunner()
    a = runner.run("aard.main", RunConfig(duration_ticks=millis(500), seed=1))
    b = runner.run("aard.main", RunConfig(duration_ticks=millis(500), seed=2))
    assert a.instr_by_region != b.instr_by_region or a.refs_by_thread != b.refs_by_thread


def test_run_config_scaled():
    cfg = RunConfig(duration_ticks=1_000)
    assert cfg.scaled(2.0).duration_ticks == 2_000
    assert cfg.duration_ticks == 1_000  # frozen original


def test_run_config_scaled_clamps_to_one_tick():
    cfg = RunConfig(duration_ticks=1_000)
    # int() truncation used to produce a degenerate zero-tick window.
    assert cfg.scaled(1e-9).duration_ticks == 1
    assert cfg.scaled(0.0).duration_ticks == 1
    assert RunConfig(duration_ticks=3).scaled(0.5).duration_ticks == 1


def test_run_config_from_json_rejects_degenerate_windows():
    from repro.errors import ConfigError

    good = RunConfig().to_json_dict()
    for field, bad in (("duration_ticks", 0), ("duration_ticks", -5),
                       ("settle_ticks", -1)):
        raw = dict(good)
        raw[field] = bad
        with pytest.raises(ConfigError):
            RunConfig.from_json_dict(raw)
    assert RunConfig.from_json_dict(good) == RunConfig()


def test_run_config_from_json_names_unknown_keys():
    """An unrecognised key used to surface as a bare ``TypeError`` from
    the dataclass constructor; it must be a ConfigError naming the key."""
    from repro.errors import ConfigError

    raw = {**RunConfig().to_json_dict(), "warp_factor": 9}
    with pytest.raises(ConfigError, match="warp_factor"):
        RunConfig.from_json_dict(raw)


def test_quick_config_sane():
    assert QUICK_CONFIG.duration_ticks > 0
    assert QUICK_CONFIG.settle_ticks > 0


# ----------------------------------------------------------------------
# ResultCache write/discard hygiene


class ExplodingResult(RunResult):
    """A result whose serialisation raises mid-:meth:`ResultCache.put`."""

    def to_json_dict(self) -> dict:
        raise RuntimeError("serialisation boom")


def cache_droppings(root) -> "list[str]":
    return [name for name in os.listdir(root) if ".tmp." in name]


def test_put_unlinks_tmp_when_serialisation_raises(tmp_path):
    cache = ResultCache(str(tmp_path))
    bad = ExplodingResult(bench_id="x", benchmark_comm="x",
                          duration_ticks=1, seed=1)
    with pytest.raises(RuntimeError, match="boom"):
        cache.put("x", RunConfig(), bad)
    # The regression: the tmp file used to leak, and because its pid is
    # this (live) process, sweep_stale_tmp correctly refused to touch it.
    assert cache_droppings(tmp_path) == []
    assert cache.sweep_stale_tmp() == 0
    assert cache.get("x", RunConfig()) is None


def test_put_unlinks_tmp_when_json_dump_fails_midwrite(tmp_path):
    cache = ResultCache(str(tmp_path))
    # Serialisable attributes, but a payload json.dump chokes on partway
    # through writing — the torn tmp must still be cleaned up.
    bad = RunResult(bench_id="x", benchmark_comm="x", duration_ticks=1,
                    seed=1, meta={"unserialisable": object()})
    with pytest.raises(TypeError):
        cache.put("x", RunConfig(), bad)
    assert cache_droppings(tmp_path) == []
    assert cache.get("x", RunConfig()) is None


def test_corrupt_discard_race_loser_stays_silent(tmp_path, monkeypatch):
    """Two readers race to discard one corrupt entry; the loser's unlink
    hits FileNotFoundError and must neither raise nor warn again."""
    cache = ResultCache(str(tmp_path))
    cfg = RunConfig()
    path = cache._path("x", cfg)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{torn")

    real_unlink = os.unlink

    def racing_unlink(target, *args, **kwargs):
        # The other reader's unlink wins between our read and discard...
        real_unlink(target, *args, **kwargs)
        # ...so our own attempt finds nothing.
        return real_unlink(target, *args, **kwargs)

    monkeypatch.setattr("repro.core.results.os.unlink", racing_unlink)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cache.get("x", cfg) is None
    assert cache.misses == 1
    assert not os.path.exists(path)
    # The winner warned; the loser (us) stays silent.
    assert [w for w in caught if "corrupt" in str(w.message)] == []


def test_corrupt_discard_still_warns_when_unlink_wins(tmp_path):
    cache = ResultCache(str(tmp_path))
    cfg = RunConfig()
    with open(cache._path("x", cfg), "w", encoding="utf-8") as fh:
        fh.write("{torn")
    with pytest.warns(RuntimeWarning, match="corrupt cache entry"):
        assert cache.get("x", cfg) is None
    assert cache.misses == 1
    # The heal: the next put serves future readers again.
    good = RunResult(bench_id="x", benchmark_comm="x", duration_ticks=1,
                     seed=1)
    cache.put("x", cfg, good)
    assert cache.get("x", cfg) == good
