"""Window policies: bounded retention for unbounded streams.

A stream that never forgets grows without bound, and with it the MLN index
and every per-batch cleaning step.  A window policy decides, as tuples
arrive, which old tuples have *expired*; the streaming engine evicts expired
tuples through the same delta path as user-issued deletes, so the index,
the repaired table and the version caches all stay consistent.

Both policies here are count-based (the stream's arrival order is its
clock):

* :class:`TumblingWindow` — the stream is cut into consecutive spans of
  ``size`` arrivals; when a new span opens, every tuple of the previous
  spans is evicted at once.
* :class:`SlidingWindow` — the last ``size`` arrivals are retained; each
  arrival beyond that evicts the oldest retained tuple.

Policies are engine-agnostic: they only observe tuple ids and report
expirations, so they can be unit-tested (and reused) in isolation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Iterable


class WindowPolicy(ABC):
    """Decides which tuples expire as new ones arrive."""

    @abstractmethod
    def observe(self, arrivals: Iterable[int]) -> list[int]:
        """Feed newly arrived tuple ids; returns the tuple ids that expired."""

    @abstractmethod
    def forget(self, tids: Iterable[int]) -> None:
        """Drop tuples evicted externally (user deletes) from the bookkeeping."""

    @property
    @abstractmethod
    def retained(self) -> list[int]:
        """The tuple ids the window currently keeps, oldest first."""


class TumblingWindow(WindowPolicy):
    """Non-overlapping spans of ``size`` arrivals; spans expire wholesale."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("a tumbling window needs size >= 1")
        self.size = size
        self._arrived = 0
        self._current: list[int] = []

    def observe(self, arrivals: Iterable[int]) -> list[int]:
        expired: list[int] = []
        for tid in arrivals:
            if self._arrived and self._arrived % self.size == 0:
                # A new span opens: the previous span leaves the window.
                expired.extend(self._current)
                self._current = []
            self._current.append(tid)
            self._arrived += 1
        return expired

    def forget(self, tids: Iterable[int]) -> None:
        drop = set(tids)
        self._current = [tid for tid in self._current if tid not in drop]

    @property
    def retained(self) -> list[int]:
        return list(self._current)


class SlidingWindow(WindowPolicy):
    """The most recent ``size`` arrivals; the oldest expire one by one."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("a sliding window needs size >= 1")
        self.size = size
        self._window: deque[int] = deque()

    def observe(self, arrivals: Iterable[int]) -> list[int]:
        expired: list[int] = []
        for tid in arrivals:
            self._window.append(tid)
            while len(self._window) > self.size:
                expired.append(self._window.popleft())
        return expired

    def forget(self, tids: Iterable[int]) -> None:
        drop = set(tids)
        self._window = deque(tid for tid in self._window if tid not in drop)

    @property
    def retained(self) -> list[int]:
        return list(self._window)
