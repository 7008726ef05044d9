"""Analysis layer: figure/table builders, claims checks, renderers.

Exported names resolve on first access (see :mod:`repro._lazy`).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, globals(), {
    "repro.analysis.breakdown": (
        "StackedBreakdown",
        "build_stacked",
        "cpu_breakdown",
        "shares",
    ),
    "repro.analysis.claims": (
        "Claim",
        "evaluate_claims",
        "evaluate_sweep_claims",
        "failed_claims",
    ),
    "repro.analysis.faults": (
        "FaultRow",
        "evaluate_fault_claims",
        "fault_report",
        "render_fault_report",
    ),
    "repro.analysis.figures": (
        "build_figure",
        "figure1",
        "figure2",
        "figure3",
        "figure4",
    ),
    "repro.analysis.fleet": (
        "DEFAULT_PERCENTILES",
        "render_fleet_report",
    ),
    "repro.analysis.render": (
        "render_breakdown_csv",
        "render_breakdown_table",
        "render_claims",
        "render_smp_table",
        "render_stacked_ascii",
        "render_sweep_table",
        "render_table1",
    ),
    "repro.analysis.smp": (
        "SmpRow",
        "smp_row",
        "smp_rows",
    ),
    "repro.analysis.sweep": (
        "METRICS",
        "SweepRow",
        "SweepTable",
        "axis_table",
        "resolve_metric",
        "sweep_tables",
    ),
    "repro.analysis.tables": (
        "Table1",
        "ThreadRow",
        "canonical_thread_name",
        "table1",
    ),
})
