"""The ambient fault injector for the running simulation.

Mirrors the ``use_calibration`` idiom: one simulation runs per process
at a time, so the active injector is a module global the engine and
binder consult instead of a reference threaded through every simulated
object that might fire a fault.
Import cost matters — this module must stay free of repro imports so
``sim.engine`` and ``android.binder`` can bind :func:`active_injector`
without cycles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector

_active: "Optional[FaultInjector]" = None


def activate(injector: "FaultInjector") -> None:
    global _active
    _active = injector


def deactivate() -> None:
    global _active
    _active = None


def active_injector() -> "Optional[FaultInjector]":
    return _active
