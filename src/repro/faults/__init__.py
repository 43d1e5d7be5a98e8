"""repro.faults: seeded, deterministic fault plans and a fault injector.

A :class:`FaultPlan` (pure data, JSON-round-trippable) schedules faults at
named injection points — "fail the 3rd call to point P", "delay every 4th
hit", "fire with probability 0.5" — and a :class:`FaultInjector` evaluates
it, deterministically for one seed.  No module of :mod:`repro` declares an
injection point: the package is a standalone library, imported by nothing
else in ``repro`` and due to be deleted.  Importing it arms nothing; a
caller that wants ``REPRO_FAULT_PLAN`` honoured calls
:func:`activate_from_env` itself.
"""

from __future__ import annotations

from repro.faults.injector import (
    INJECTOR,
    PLAN_ENV_VAR,
    Decision,
    FaultInjector,
    InjectedConnectionError,
    InjectedCrash,
    InjectedFault,
    InjectedIOError,
    activate_from_env,
)
from repro.faults.plan import ACTIONS, FaultPlan, FaultRule

__all__ = [
    "ACTIONS",
    "Decision",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "INJECTOR",
    "InjectedConnectionError",
    "InjectedCrash",
    "InjectedFault",
    "InjectedIOError",
    "PLAN_ENV_VAR",
    "activate_from_env",
]

