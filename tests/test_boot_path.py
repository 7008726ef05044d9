"""The one boot path: every run reaches its pre-settle point through
``core.execute._build_fresh``.

A run must stay a pure function of ``(bench_id, RunConfig)`` although
one process executes many runs and shares memos between them
(``MethodTable.generate_cached``, ``SpecModel._profiles``).  These tests
pin what that rests on: two builds share no mutable state, the
pre-settle state depends on the bench seed and the machine config but
not on the window knobs, a faulted window opens from its fault-free
baseline's state, the memos hand out what a fresh computation would,
and repeating a run — in this process after other runs, or in a fresh
interpreter — reproduces its bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.calibration import Calibration
from repro.core import RunConfig
from repro.core import execute
from repro.core.runner import execute_one
from repro.core.suite import get_benchmark
from repro.dalvik.method import MethodTable
from repro.faults import fault_plan
from repro.sim.ticks import millis

FAST = RunConfig(duration_ticks=millis(50), settle_ticks=millis(20))
#: One Android foreground app, one Android media app, one SPEC model.
BENCHES = ("countdown.main", "music.mp3.view", "429.mcf")


def _cfg(**knobs) -> RunConfig:
    return dataclasses.replace(FAST, **knobs)


def _build(bench_id: str, cfg: RunConfig = FAST):
    return execute._build_fresh(get_benchmark(bench_id), cfg)


def _census(system) -> tuple:
    """Everything observable about a system that a run can change."""
    procs = sorted(system.kernel.live_processes(), key=lambda p: p.pid)
    return (
        system.now,
        system.rng.getstate(),
        len(system.cpus),
        system.cpu_specs,
        [p.full_name for p in procs],
        [(t.tid, t.vruntime) for p in procs for t in p.tasks],
        [
            (p.pid, v.label, v.start, v.end)
            for p in procs if p.mm is not None for v in p.mm.vmas
        ],
        (
            system.profiler.total_instr,
            system.profiler.total_data,
            system.profiler.blocks_retired,
        ),
    )


def _result_bytes(bench_id: str, cfg: RunConfig = FAST) -> bytes:
    result = execute_one(bench_id, cfg)
    return json.dumps(result.to_json_dict(), sort_keys=True).encode()


# ----------------------------------------------------------------------
# (a) Builds: private graphs, a pure function of seed and machine


class TestBuildFresh:
    @pytest.mark.parametrize("bench_id", BENCHES)
    def test_two_builds_are_distinct_graphs(self, bench_id):
        sys_a, stack_a, model_a = _build(bench_id)
        sys_b, stack_b, model_b = _build(bench_id)
        assert sys_a is not sys_b
        assert sys_a.kernel is not sys_b.kernel
        assert sys_a.clock is not sys_b.clock
        assert stack_a is not stack_b
        assert model_a is not model_b
        for proc_a, proc_b in zip(sys_a.kernel.live_processes(),
                                  sys_b.kernel.live_processes()):
            assert proc_a is not proc_b
            if proc_a.mm is not None:
                assert proc_a.mm is not proc_b.mm
        assert _census(sys_a) == _census(sys_b)
        assert len(sys_a.kernel.live_processes()) >= 20

    @pytest.mark.parametrize("bench_id", BENCHES)
    def test_running_one_build_leaves_a_sibling_untouched(self, bench_id):
        sys_a, _, _ = _build(bench_id)
        sys_b, _, _ = _build(bench_id)
        before = _census(sys_b)
        sys_a.run_for(millis(30))
        assert sys_a.now > sys_b.now
        assert _census(sys_a) != before
        assert _census(sys_b) == before
        # A later build still starts from the same pre-settle point.
        sys_c, _, _ = _build(bench_id)
        assert _census(sys_c) == before

    @pytest.mark.parametrize(
        "variant",
        [
            FAST.scaled(4.0),
            _cfg(duration_ticks=millis(999)),
            _cfg(settle_ticks=0),
            _cfg(faults=fault_plan("chaos")),
        ],
        ids=["scaled", "duration", "settle", "faults"],
    )
    def test_pre_settle_state_ignores_window_knobs(self, variant):
        for bench_id in BENCHES:
            assert _census(_build(bench_id, variant)[0]) == \
                _census(_build(bench_id)[0]), bench_id

    @pytest.mark.parametrize(
        "variant, baseline",
        [
            (_cfg(seed=99), FAST),
            (_cfg(jit_enabled=False), FAST),
            (_cfg(cpus=4), FAST),
            (_cfg(cpus=4, cpu_profile="2+2"), _cfg(cpus=4)),
        ],
        ids=["seed", "jit", "cpus", "cpu_profile"],
    )
    def test_boot_knobs_reach_the_build(self, variant, baseline):
        for bench_id in BENCHES:
            assert _census(_build(bench_id, variant)[0]) != \
                _census(_build(bench_id, baseline)[0]), bench_id

    @pytest.mark.parametrize("bench_id", BENCHES)
    def test_faulted_window_opens_from_the_baseline_state(
        self, bench_id, monkeypatch
    ):
        """The settle is fault-free: a faulted run and its baseline
        reach the window edge in the same state."""
        seen = []
        original = execute._open_window

        def spy(system):
            seen.append(_census(system))
            return original(system)

        monkeypatch.setattr(execute, "_open_window", spy)
        cfg = _cfg(duration_ticks=millis(400), settle_ticks=millis(200))
        base = execute_one(bench_id, cfg)
        faulted = execute_one(
            bench_id, dataclasses.replace(cfg, faults=fault_plan("chaos"))
        )
        assert len(seen) == 2 and seen[0] == seen[1]
        assert base.fault_counters == {}
        assert sum(faulted.fault_counters.values()) > 0


# ----------------------------------------------------------------------
# (b) Runs: repeating one reproduces its bytes


REPEAT_CONFIGS = {
    "fast": FAST,
    "calibrated": _cfg(calibration=Calibration()),
    "faulted": _cfg(faults=fault_plan("chaos")),
    "nojit": _cfg(jit_enabled=False),
    "cpus4": _cfg(cpus=4),
    "biglittle": _cfg(cpus=4, cpu_profile="2+2"),
}


class TestRepeatRuns:
    @pytest.mark.parametrize("bench_id", BENCHES)
    @pytest.mark.parametrize("label", sorted(REPEAT_CONFIGS))
    def test_same_run_twice_is_byte_identical(self, label, bench_id):
        cfg = REPEAT_CONFIGS[label]
        assert _result_bytes(bench_id, cfg) == _result_bytes(bench_id, cfg)

    def test_run_after_a_scribbled_build_matches(self):
        """Driving one system forward does not perturb the results
        computed from the next build."""
        for bench_id in BENCHES:
            first = _result_bytes(bench_id)
            system, _, _ = _build(bench_id)
            system.run_for(millis(40))
            assert _result_bytes(bench_id) == first, bench_id

    def test_fresh_interpreter_reproduces_in_process_bytes(self):
        """Memos warmed by earlier runs in this process change nothing:
        a fresh interpreter, whose memos are empty, computes the same
        bytes."""
        for bench_id in BENCHES:                 # warm this process
            execute_one(bench_id, _cfg(seed=7))
        want = [
            hashlib.sha256(_result_bytes(bench_id)).hexdigest()
            for bench_id in BENCHES
        ]
        script = (
            "import hashlib, json, sys\n"
            "from repro.core import RunConfig\n"
            "from repro.core.runner import execute_one\n"
            "from repro.sim.ticks import millis\n"
            "cfg = RunConfig(duration_ticks=millis(50), "
            "settle_ticks=millis(20))\n"
            "for bench_id in sys.argv[1:]:\n"
            "    run = execute_one(bench_id, cfg)\n"
            "    payload = json.dumps(run.to_json_dict(), sort_keys=True)\n"
            "    print(hashlib.sha256(payload.encode()).hexdigest())\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", script, *BENCHES],
            env=env, capture_output=True, text=True, timeout=120,
            check=True,
        )
        assert out.stdout.split() == want


# ----------------------------------------------------------------------
# (c) Shared memos: what a fresh computation would give, never shared
# mutable state


@pytest.fixture()
def empty_method_memo(monkeypatch):
    monkeypatch.setattr(MethodTable, "_generated", {})
    return MethodTable


class TestSharedMemos:
    @pytest.mark.parametrize(
        "args",
        [(1, "app"), (42, "system_server", 90, 200, 0.3),
         (7, "com.example", 5, 24, 1.0)],
        ids=["default", "server", "small"],
    )
    def test_generate_cached_matches_generate(self, args, empty_method_memo):
        miss = MethodTable.generate_cached(*args)
        hit = MethodTable.generate_cached(*args)
        for table in (miss, hit):
            fresh = MethodTable.generate(*args)
            assert table.methods == fresh.methods
            assert table.pick_batch(64) == fresh.pick_batch(64)
            assert table.pick() == fresh.pick()

    def test_cached_tables_are_private(self, empty_method_memo):
        a = MethodTable.generate_cached(3, "app")
        b = MethodTable.generate_cached(3, "app")
        assert a.methods is not b.methods and a._rng is not b._rng
        a.pick_batch(100)                        # advance one generator
        a.methods.pop()
        fresh = MethodTable.generate(3, "app")
        assert b.methods == fresh.methods
        assert b.pick_batch(16) == fresh.pick_batch(16)
        with pytest.raises(dataclasses.FrozenInstanceError):
            b.methods[0].bytecodes = 1           # shared entries are frozen

    def test_method_memo_is_bounded(self, empty_method_memo, monkeypatch):
        monkeypatch.setattr(MethodTable, "_GENERATED_MAX", 4)
        for seed in range(10):
            MethodTable.generate_cached(seed, "app", count=2)
        assert list(MethodTable._generated) == [
            (seed, "app", 2, 320, 0.5) for seed in range(6, 10)
        ]

    def test_spec_profile_memo_is_shared_and_frozen(self, monkeypatch):
        from repro.apps.spec.base import SpecModel

        monkeypatch.setattr(SpecModel, "_profiles", {})
        factory = get_benchmark("429.mcf").factory
        first, second = factory(5), factory(5)
        assert first is not second
        assert first.profile is second.profile   # calibrated once
        assert first.profile == first.calibrate()
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.profile.insts = 1
