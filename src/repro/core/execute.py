"""The simulation half of the runner: boot, settle, window, census.

Everything here runs the simulator, so this module imports it (the
kernel, the Android stack, the Dalvik VM, the libraries, the fault
injector) at module level.  Nothing else in the orchestration layer
does: :func:`repro.core.runner.execute_one` imports this module on its
first call, and :func:`repro.core.runner.execute_with_cache` imports it
in the parent just before the first cache miss reaches a backend, so
pool workers fork with the simulator already loaded.  A run served
wholly from a cache never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

# The workload models the catalog names by module and class: imported
# here with the rest of the simulator, so pool workers fork with them too.
import repro.apps  # noqa: F401
import repro.apps.spec  # noqa: F401
from repro.android.app import start_activity
from repro.android.boot import boot_android
from repro.calibration import use_calibration
from repro.core import snapshots
from repro.core.results import RunResult
from repro.core.runner import bench_seed
from repro.core.suite import get_benchmark
from repro.faults import runtime as fault_runtime
from repro.faults.injector import FaultInjector
from repro.kernel.layout import truncate_comm
from repro.sim.system import System

if TYPE_CHECKING:
    from repro.core.runner import RunConfig
    from repro.core.spec import BenchmarkSpec


def _prepared_system(spec: BenchmarkSpec, cfg: RunConfig):
    """``(system, stack, model)`` at the pre-settle point — fresh or
    restored.

    The checkpoint sits after boot *and* after workload-model
    construction (plus ``setup_files`` for Android benchmarks, i.e. the
    app install): everything up to here is a pure function of the
    snapshot key — ``spec.factory`` takes only the bench seed, and the
    install mutates the system deterministically — while everything
    after (settle, window, workload) depends on the excluded
    duration/settle knobs and runs fresh every time.

    With snapshots off this builds from scratch.  With a store enabled,
    the lookup walks the tiers: a full level-2 template (memory, then
    the shared disk directory), then a seed-independent level-1 template
    with the bench seed folded back in by ``apply_seed_delta`` and the
    model rebuilt from its factory, and only when both miss does the
    stack actually boot — under a per-key lock so concurrent workers
    sharing a disk store boot each level-1 template once per host.  The
    miss run captures both levels and continues on the freshly built
    graph (it pays serialises, never a restore).
    """
    store = snapshots.active_store()
    if store is None:
        return _build_fresh(spec, cfg)
    try:
        return _prepared_with_store(store, spec, cfg)
    finally:
        store.flush_worker_stats()


def _build_fresh(spec: BenchmarkSpec, cfg: RunConfig):
    seed = bench_seed(spec.bench_id, cfg)
    system = System(seed=seed, cpus=cfg.cpus, cpu_profile=cfg.cpu_profile)
    stack = boot_android(system, jit_enabled=cfg.jit_enabled)
    model = spec.factory(seed)
    if spec.is_android:
        model.setup_files(system)
    return system, stack, model


def _prepared_with_store(
    store: "snapshots.SnapshotStore", spec: BenchmarkSpec, cfg: RunConfig
):
    key = snapshots.snapshot_key(spec.bench_id, cfg)
    restored = store.restore(key)
    if restored is not None:
        return restored
    seed = bench_seed(spec.bench_id, cfg)
    l1_key = snapshots.level1_key(cfg)
    derived = store.derive(key, l1_key, seed, spec.bench_id)
    if derived is not None:
        return derived
    with store.boot_lock(l1_key):
        # Another worker may have published the level-1 template while
        # this one waited on the lock; re-check before paying the boot.
        derived = store.derive(key, l1_key, seed, spec.bench_id)
        if derived is not None:
            return derived
        system = System(seed=seed, cpus=cfg.cpus, cpu_profile=cfg.cpu_profile)
        stack = boot_android(system, jit_enabled=cfg.jit_enabled)
        store.capture_level1(l1_key, system, stack)
        model = spec.factory(seed)
        if spec.is_android:
            model.setup_files(system)
        store.capture(key, (system, stack, model))
    return system, stack, model


def prime_snapshot(bench_id: str, cfg: RunConfig) -> str:
    """Build (or reuse) the boot template for this config without
    running any workload; returns the template key.

    Installs the config's calibration override exactly as a real run
    would, so the captured boot is the one runs will restore.
    """
    spec = get_benchmark(bench_id)
    if cfg.calibration is not None:
        with use_calibration(cfg.calibration):
            _prepared_system(spec, cfg)
    else:
        _prepared_system(spec, cfg)
    return snapshots.snapshot_key(bench_id, cfg)


def run_spec(spec: BenchmarkSpec, cfg: RunConfig) -> RunResult:
    """Run one benchmark on a prepared system and census the window."""
    seed = bench_seed(spec.bench_id, cfg)
    system, stack, model = _prepared_system(spec, cfg)

    # Settle and the pre-settle checkpoint stay fault-free: the injector
    # arms at the window edge, so boot-snapshot templates are shared
    # across plans and faults only perturb the measured interval.
    system.run_for(cfg.settle_ticks)
    system.profiler.reset()
    window = _open_window(system)
    injector = None
    if cfg.faults is not None:
        injector = FaultInjector(cfg.faults, seed, system, stack)
        injector.arm(system.clock.now)
        fault_runtime.activate(injector)
    try:
        if spec.is_android:
            record = start_activity(stack, model, background=spec.background)
            system.run_for(cfg.duration_ticks)
            comm = model.benchmark_comm
            meta = {
                "package": model.package,
                "mode": "background" if spec.background else "foreground",
                "launched": record.proc is not None,
                "frames_drawn": record.app.frames_drawn if record.app else 0,
                "sf_frames": stack.sf.frames_composited,
                "gc_cycles": record.app.ctx.gc_cycles if record.app else 0,
                "jit_compiled": len(record.app.ctx.compiled) if record.app else 0,
            }
        else:
            proc = model.launch(system)
            system.run_for(cfg.duration_ticks)
            comm = truncate_comm(model.name)
            meta = {
                "profile_insts": model.profile.insts,
                "pid": proc.pid,
            }
    finally:
        if injector is not None:
            fault_runtime.deactivate()
            injector.disarm()

    reaped_at_open, busy_at_open, any_busy_at_open = window
    # "Threads spawned": every thread alive at window close plus the
    # transients that came and went inside the window.
    threads_observed = system.kernel.thread_count() + (
        system.kernel.threads_reaped - reaped_at_open
    )
    smp: dict = {}
    if cfg.cpus > 1:
        # Per-CPU busy/idle deltas over the measurement window.  Only
        # multi-core runs carry them: single-core results must stay
        # byte-identical to the pre-SMP engine's output.
        smp = {
            "cpus": cfg.cpus,
            "instr_by_cpu": dict(system.profiler.instr_by_cpu),
            "data_by_cpu": dict(system.profiler.data_by_cpu),
            "busy_ticks_by_cpu": {
                cpu.cpu_id: cpu.busy_ticks - busy_at_open[cpu.cpu_id]
                for cpu in system.cpus
            },
            "any_busy_ticks": system.engine.any_busy_ticks - any_busy_at_open,
        }
    if cfg.cpu_profile is not None:
        smp["cpu_profile"] = cfg.cpu_profile
    return RunResult.from_profiler(
        bench_id=spec.bench_id,
        benchmark_comm=comm,
        profiler=system.profiler,
        duration_ticks=cfg.duration_ticks,
        seed=seed,
        live_processes=system.kernel.process_count(),
        threads_spawned_total=threads_observed,
        meta=meta,
        fault_counters=injector.counters() if injector is not None else {},
        **smp,
    )


def _open_window(system: System) -> tuple[int, list[int], int]:
    """Census counters snapshotted as the measurement window opens."""
    return (
        system.kernel.threads_reaped,
        [cpu.busy_ticks for cpu in system.cpus],
        system.engine.any_busy_ticks,
    )
