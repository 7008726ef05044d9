"""Suite core: benchmark registry, runner, execution backends, results.

Exported names resolve on first access (see :mod:`repro._lazy`): a
``repro suite`` never loads the sweep, fleet or pool machinery.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, globals(), {
    "repro.core.backends": (
        "BACKEND_NAMES",
        "BackendError",
        "BatchProgress",
        "ExecutionBackend",
        "PoolBackend",
        "ProgressCallback",
        "SerialBackend",
        "WorkItem",
        "make_backend",
    ),
    "repro.core.fleet": (
        "DeviceProfile",
        "FleetReducer",
        "FleetResult",
        "FleetSpec",
        "FleetUnit",
        "ProgressMeter",
        "parse_mix",
        "run_fleet",
    ),
    "repro.core.results": (
        "CacheStats",
        "GcReport",
        "ResultCache",
        "RunResult",
        "SuiteResult",
    ),
    "repro.core.runner": (
        "QUICK_CONFIG",
        "Reducer",
        "RunConfig",
        "SuiteRunner",
        "bench_seed",
        "dedup_ids",
        "execute_one",
        "parse_shard",
        "shard_ids",
    ),
    "repro.core.stats": (
        "DEFAULT_SAMPLE_CAPACITY",
        "FLEET_METRICS",
        "MetricSketch",
        "SketchSet",
    ),
    "repro.core.spec": (
        "BenchmarkSpec",
        "Category",
        "Kind",
    ),
    "repro.core.sweep": (
        "MaterializingReducer",
        "SweepAxis",
        "SweepPoint",
        "SweepResult",
        "SweepRunner",
        "SweepSpec",
        "parse_axis",
        "variant_label",
    ),
    "repro.core.suite": (
        "AGAVE_BENCHMARKS",
        "AGAVE_IDS",
        "ALL_BENCHMARKS",
        "FIGURE_ORDER",
        "SPEC_BENCHMARKS",
        "SPEC_IDS",
        "benchmarks",
        "get_benchmark",
    ),
})
