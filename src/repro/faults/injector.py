"""The fault injector: deterministic decisions at named injection points.

A call site declares an *injection point* —
``INJECTOR.decide("disk.write", shard=name)`` — and interprets the returned
:class:`Decision` (or ``None``): proceed, ``fail``, ``delay`` by
``delay_s``, or any other action of :data:`repro.faults.plan.ACTIONS`.
:meth:`FaultInjector.io` and :meth:`FaultInjector.crash` turn a decision
into the exception a real disk or engine failure would raise.

The process-global :data:`INJECTOR` is inert until a plan is activated;
the off path is one attribute read (``INJECTOR.active``).
:func:`activate_from_env` arms it from the ``REPRO_FAULT_PLAN`` environment
variable — a path to a plan JSON file, or the JSON itself — when a caller
asks it to.

Injected failures raise dedicated subclasses (:class:`InjectedIOError` is
an ``OSError``, :class:`InjectedConnectionError` a ``ConnectionError``,
:class:`InjectedCrash` a ``RuntimeError``) so code under test sees
exactly the exception type the real fault would produce, while tests can
still tell injected faults from real ones via :class:`InjectedFault`.
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.obs import REGISTRY

from repro.faults.plan import FaultPlan

#: environment variable carrying a plan for this process (path or inline JSON)
PLAN_ENV_VAR = "REPRO_FAULT_PLAN"

FAULTS_INJECTED = REGISTRY.counter(
    "repro_faults_injected_total",
    "faults the injector fired, by injection point and action",
    ("point", "action"),
)


class InjectedFault(Exception):
    """Marker base: this failure was injected, not organic."""


class InjectedIOError(InjectedFault, OSError):
    """An injected disk failure (WAL append/fsync, snapshot write)."""


class InjectedConnectionError(InjectedFault, ConnectionError):
    """An injected network failure (refused connection, dropped response)."""


class InjectedCrash(InjectedFault, RuntimeError):
    """An injected unexpected error inside the engine (poison-job scenario)."""


@dataclass(frozen=True)
class Decision:
    """What a call site should do about one hit (see the action table)."""

    action: str
    rule_index: int
    delay_s: float = 0.0


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against hits, deterministically.

    Per rule it counts *eligible* hits (point and filters matched) and fires
    per the rule's window; the first firing rule wins a hit.  Thread-safe —
    injection points run on the event loop, executor threads and client
    threads alike.
    """

    def __init__(self, plan: Optional[FaultPlan] = None):
        self._lock = threading.Lock()
        self._plan: Optional[FaultPlan] = None
        self._hits: list = []
        self._rngs: list = []
        self._fired: "dict[tuple, int]" = {}
        self.active = False
        if plan is not None:
            self.activate(plan)

    def activate(self, plan: FaultPlan) -> None:
        """Arm the injector; counters and RNGs restart from the plan's seed."""
        with self._lock:
            self._plan = plan
            self._hits = [0] * len(plan.rules)
            self._rngs = [
                # one independent stream per rule, derived from the plan seed
                random.Random(f"{plan.seed}/{index}")
                for index in range(len(plan.rules))
            ]
            self._fired = {}
            self.active = bool(plan.rules)

    def deactivate(self) -> None:
        with self._lock:
            self._plan = None
            self._hits = []
            self._rngs = []
            self.active = False

    # ------------------------------------------------------------------
    # the call-site API
    # ------------------------------------------------------------------
    def decide(self, point: str, **attrs) -> Optional[Decision]:
        """The plan's verdict on this hit (None = proceed normally)."""
        if not self.active:
            return None
        with self._lock:
            plan = self._plan
            if plan is None:
                return None
            for index, rule in enumerate(plan.rules):
                if rule.point != point or not rule.matches(attrs):
                    continue
                self._hits[index] += 1
                if not rule.fires_on(self._hits[index]):
                    continue
                if (
                    rule.probability is not None
                    and self._rngs[index].random() >= rule.probability
                ):
                    continue
                key = (point, rule.action)
                self._fired[key] = self._fired.get(key, 0) + 1
                FAULTS_INJECTED.labels(point=point, action=rule.action).inc()
                return Decision(
                    action=rule.action, rule_index=index, delay_s=rule.delay_s
                )
        return None

    def io(self, point: str, **attrs) -> None:
        """Convenience for disk points: raise/sleep per the plan's verdict."""
        decision = self.decide(point, **attrs)
        if decision is None:
            return
        if decision.action == "delay":
            import time

            time.sleep(decision.delay_s)
            return
        raise InjectedIOError(f"injected {point} failure ({attrs})")

    def crash(self, point: str, **attrs) -> None:
        """Convenience for engine points: raise :class:`InjectedCrash` on fail."""
        decision = self.decide(point, **attrs)
        if decision is not None and decision.action == "fail":
            raise InjectedCrash(f"injected {point} crash ({attrs})")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def report(self) -> dict:
        """``{"point/action": fired_count}`` — what actually happened."""
        with self._lock:
            return {
                f"{point}/{action}": count
                for (point, action), count in sorted(self._fired.items())
            }


#: the process-global injector every call site consults (inert by default)
INJECTOR = FaultInjector()


def activate_from_env(environ=os.environ) -> bool:
    """Arm :data:`INJECTOR` from ``REPRO_FAULT_PLAN``; True if a plan loaded.

    The variable holds either inline plan JSON (first non-space character
    ``{``) or a path to a plan file.  A present-but-broken plan raises —
    chaos runs must never silently degrade into fault-free runs.
    """
    raw = environ.get(PLAN_ENV_VAR)
    if not raw:
        return False
    text = raw if raw.lstrip().startswith("{") else Path(raw).read_text(
        encoding="utf-8"
    )
    INJECTOR.activate(FaultPlan.from_json(text))
    return True
