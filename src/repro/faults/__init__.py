"""Fault injection: deterministic, cache-keyed fault plans.

See :mod:`repro.faults.plan` for the plan vocabulary and the
``FAULT_PLANS`` registry, :mod:`repro.faults.injector` for execution,
and :mod:`repro.faults.runtime` for the ambient-injector global the
engine and binder consult.

Exported names resolve on first access (see :mod:`repro._lazy`): a plan
is part of every ``RunConfig``, but only a run that injects needs the
injector, which imports the simulator.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, globals(), {
    "repro.faults.injector": (
        "COUNTER_KEYS",
        "DROP_SAFE_CODES",
        "FaultInjector",
        "channel_rng",
    ),
    "repro.faults.plan": (
        "FAULT_PLANS",
        "FaultPlan",
        "ThreadKill",
        "ThrottleWindow",
        "fault_plan",
        "plan_names",
    ),
    "repro.faults.runtime": ("activate", "active_injector", "deactivate"),
})
