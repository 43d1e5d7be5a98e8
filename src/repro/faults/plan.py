"""Pure-data fault plans: *what* to break, *where*, and *when*.

A :class:`FaultPlan` is the schedule a
:class:`~repro.faults.injector.FaultInjector` evaluates: a seed plus an
ordered list of :class:`FaultRule`\\ s.  Plans are plain data —
JSON-round-trippable byte-for-byte (:meth:`FaultPlan.to_json` /
:meth:`FaultPlan.from_json`) — so one schedule can be written to a file,
handed to another process through the ``REPRO_FAULT_PLAN`` environment
variable, and replayed deterministically later.

A rule names an injection *point* (a dotted string a call site declares,
e.g. ``"disk.write"``), an *action*, optional attribute filters, and a
firing window over the rule's *eligible hits* — the calls that reach its
point and pass its filters.  Examples, in plan form::

    fail the 3rd write on shard ab12…          → point="disk.write",
        action="fail", match={"shard": "ab12"}, nth=3
    delay every 4th request                    → point="http.request",
        action="delay", delay_s=0.5, every=4
    fail half of the engine applies            → point="engine.apply",
        action="fail", times=None, probability=0.5

Matching is exact string equality, except that a rule value may be a
*prefix* of the hit's value — shard fingerprints and paths are long, plans
should not have to spell them out.  ``probability`` gates each eligible hit
on a coin flip drawn from a per-rule RNG seeded by ``plan.seed`` and the
rule's index, so two injectors fed the same plan make identical decisions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

#: everything a rule may do at its injection point; what each action means
#: is defined by the call site (see the injector's module docstring)
ACTIONS = ("fail", "delay", "drop", "duplicate", "stall", "corrupt")


@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault (see the module docstring for the vocabulary)."""

    point: str
    action: str = "fail"
    #: attribute filters: every key must match the hit's attribute exactly,
    #: or be a prefix of it (fingerprints/paths are long)
    match: dict = field(default_factory=dict)
    #: the first eligible hit that fires, 1-based
    nth: int = 1
    #: how many consecutive eligible hits fire from ``nth`` on (None = all)
    times: Optional[int] = 1
    #: fire every Nth eligible hit instead of a contiguous [nth, nth+times) run
    every: Optional[int] = None
    #: gate each would-be firing on a seeded coin flip (None = always)
    probability: Optional[float] = None
    #: sleep duration of the ``delay`` action, seconds
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.point or not isinstance(self.point, str):
            raise ValueError("a fault rule needs a non-empty 'point'")
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; pick one of {ACTIONS}"
            )
        if not isinstance(self.match, dict):
            raise ValueError("'match' must be a {attribute: value} mapping")
        if self.nth < 1:
            raise ValueError("'nth' is 1-based and must be >= 1")
        if self.times is not None and self.times < 1:
            raise ValueError("'times' must be >= 1 (or None for unlimited)")
        if self.every is not None and self.every < 1:
            raise ValueError("'every' must be >= 1")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError("'probability' must be within [0, 1]")
        if self.delay_s < 0:
            raise ValueError("'delay_s' must be >= 0")

    def fires_on(self, hit: int) -> bool:
        """Whether eligible hit number ``hit`` (1-based) is in the window.

        (The probability gate is the injector's job — it owns the RNG.)
        """
        if self.every is not None:
            return hit % self.every == 0
        if hit < self.nth:
            return False
        return self.times is None or hit < self.nth + self.times

    def to_dict(self) -> dict:
        """The rule as plain JSON data, defaults omitted."""
        data: dict = {"point": self.point, "action": self.action}
        if self.match:
            data["match"] = dict(self.match)
        if self.nth != 1:
            data["nth"] = self.nth
        if self.times != 1:
            data["times"] = self.times
        if self.every is not None:
            data["every"] = self.every
        if self.probability is not None:
            data["probability"] = self.probability
        if self.delay_s:
            data["delay_s"] = self.delay_s
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRule":
        if not isinstance(data, dict):
            raise ValueError(f"a fault rule must be a JSON object, got {data!r}")
        known = {
            "point", "action", "match", "nth", "times", "every",
            "probability", "delay_s",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault-rule fields {sorted(unknown)}")
        return cls(
            point=data.get("point", ""),
            action=data.get("action", "fail"),
            match=dict(data.get("match") or {}),
            nth=int(data.get("nth", 1)),
            times=None if data.get("times", 1) is None else int(data.get("times", 1)),
            every=None if data.get("every") is None else int(data["every"]),
            probability=(
                None if data.get("probability") is None
                else float(data["probability"])
            ),
            delay_s=float(data.get("delay_s", 0.0)),
        )

    def matches(self, attrs: dict) -> bool:
        """Exact-or-prefix match of every filter against the hit's attributes."""
        for key, wanted in self.match.items():
            actual = attrs.get(key)
            if actual is None:
                return False
            actual, wanted = str(actual), str(wanted)
            if actual != wanted and not actual.startswith(wanted):
                return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus an ordered rule list — one deterministic fault schedule."""

    seed: int = 0
    rules: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        for rule in self.rules:
            if not isinstance(rule, FaultRule):
                raise ValueError(f"plans hold FaultRule objects, got {rule!r}")

    def to_json(self) -> str:
        """Canonical JSON; byte-stable across round trips."""
        return json.dumps(
            {"seed": self.seed, "rules": [rule.to_dict() for rule in self.rules]},
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError("a fault plan must be a JSON object")
        raw_rules = data.get("rules", [])
        if not isinstance(raw_rules, list):
            raise ValueError("'rules' must be a list of rule objects")
        return cls(
            seed=int(data.get("seed", 0)),
            rules=tuple(FaultRule.from_dict(rule) for rule in raw_rules),
        )
