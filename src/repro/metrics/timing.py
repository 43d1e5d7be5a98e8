"""Wall-clock timing helpers for the experiment harness.

The paper reports runtimes alongside accuracy (Figures 6, 11, 15 and
Table 6).  :class:`Stopwatch` measures individual phases and
:class:`TimingBreakdown` accumulates them per named phase so the harness can
report, e.g., how much of the total time is spent in weight learning (the
paper attributes ~95 % of MLNClean's runtime to it).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


class Stopwatch:
    """A simple start/stop wall-clock timer."""

    def __init__(self) -> None:
        self._started: float | None = None
        self.elapsed = 0.0

    def start(self) -> "Stopwatch":
        self._started = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._started is None:
            raise RuntimeError("stopwatch was not started")
        self.elapsed += time.perf_counter() - self._started
        self._started = None
        return self.elapsed

    def reset(self) -> None:
        self._started = None
        self.elapsed = 0.0

    @contextmanager
    def measure(self) -> Iterator["Stopwatch"]:
        """Context manager form: ``with watch.measure(): ...``."""
        self.start()
        try:
            yield self
        finally:
            self.stop()


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

    def fraction(self, phase: str) -> float:
        """Share of the total spent in ``phase`` (0.0 when nothing measured)."""
        total = self.total
        if total == 0.0:
            return 0.0
        return self.phases.get(phase, 0.0) / total

    def merge(self, other: "TimingBreakdown") -> "TimingBreakdown":
        merged = TimingBreakdown(dict(self.phases))
        for phase, seconds in other.phases.items():
            merged.record(phase, seconds)
        return merged

    def as_dict(self) -> dict[str, float]:
        return dict(self.phases)
