"""Wall-clock timing helpers for the experiment harness.

The paper reports runtimes alongside accuracy (Figures 6, 11, 15 and
Table 6).  :class:`TimingBreakdown` accumulates wall-clock time per named
phase so the harness can report, e.g., how much of the total time is spent
in weight learning (the paper attributes ~95 % of MLNClean's runtime to it).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class TimingBreakdown:
    """Accumulated wall-clock time per named phase."""

    phases: dict[str, float] = field(default_factory=dict)

    def record(self, phase: str, seconds: float) -> None:
        self.phases[phase] = self.phases.get(phase, 0.0) + seconds

    @contextmanager
    def time(self, phase: str) -> Iterator[None]:
        """Measure a block and add it to ``phase``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.record(phase, time.perf_counter() - started)

    @property
    def total(self) -> float:
        return sum(self.phases.values())

    def merge(self, other: "TimingBreakdown") -> "TimingBreakdown":
        merged = TimingBreakdown(dict(self.phases))
        for phase, seconds in other.phases.items():
            merged.record(phase, seconds)
        return merged

    def as_dict(self) -> dict[str, float]:
        return dict(self.phases)
