"""gem5-style simulation substrate: clock, atomic CPU, profiler, engine.

Exported names resolve on first access (see :mod:`repro._lazy`), so
importing a leaf such as :mod:`repro.sim.ticks` loads that module alone.
The orchestration layer (CLI, catalog, result codec, cache) needs only
the tick helpers; a warm-cache replay therefore never loads the engine,
the kernel or anything above them.  Lazy exports also keep the package
free of import cycles: ``System`` sits above the kernel layer, which in
turn imports :mod:`repro.sim.ops`.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, globals(), {
    "repro.sim.cpu": ("AtomicCPU",),
    "repro.sim.devices": (
        "AudioDevice",
        "DeviceSet",
        "FramebufferDevice",
        "StorageDevice",
    ),
    "repro.sim.engine": ("Engine",),
    "repro.sim.memprofiler": ("MemProfiler",),
    "repro.sim.ops": (
        "YIELD",
        "Block",
        "ExecBlock",
        "Sleep",
        "SleepUntil",
        "Yield",
        "merge_data",
    ),
    "repro.sim.system": ("System",),
    "repro.sim.ticks": (
        "Clock",
        "insts_to_ticks",
        "micros",
        "millis",
        "seconds",
        "to_seconds",
    ),
})
