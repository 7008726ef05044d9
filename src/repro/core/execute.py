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
from repro.core.results import RunResult
from repro.core.runner import bench_seed
from repro.faults import runtime as fault_runtime
from repro.faults.injector import FaultInjector
from repro.kernel.layout import truncate_comm
from repro.sim.system import System

if TYPE_CHECKING:
    from repro.core.runner import RunConfig
    from repro.core.spec import BenchmarkSpec


def _build_fresh(spec: BenchmarkSpec, cfg: RunConfig):
    """``(system, stack, model)`` at the pre-settle point: booted, with
    the workload model built (and, for Android benchmarks, its files
    installed).  Everything up to here depends only on the bench seed
    and the machine config; settle, window and workload run after."""
    seed = bench_seed(spec.bench_id, cfg)
    system = System(seed=seed, cpus=cfg.cpus, cpu_profile=cfg.cpu_profile)
    stack = boot_android(system, jit_enabled=cfg.jit_enabled)
    model = spec.factory(seed)
    if spec.is_android:
        model.setup_files(system)
    return system, stack, model


def run_spec(spec: BenchmarkSpec, cfg: RunConfig) -> RunResult:
    """Run one benchmark on a prepared system and census the window."""
    seed = bench_seed(spec.bench_id, cfg)
    system, stack, model = _build_fresh(spec, cfg)

    # Settle stays fault-free: the injector arms at the window edge, so
    # a faulted run opens its window from the same state as its
    # fault-free baseline and faults only perturb the measured interval.
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
