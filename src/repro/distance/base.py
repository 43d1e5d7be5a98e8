"""Distance-metric interface and registry.

A metric measures the dissimilarity of two strings.  MLNClean additionally
needs the distance between two *pieces of data* (tuples of attribute values),
which every metric derives by summing the per-attribute string distances; this
matches the paper's use of the Levenshtein distance over the concatenated
attribute values of a γ.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Sequence
from typing import Callable


class DistanceMetric(ABC):
    """Base class for string distance metrics.

    Subclasses implement :meth:`distance`, which must satisfy
    ``distance(a, a) == 0`` and symmetry; the normalised variant maps into
    ``[0, 1]`` which the reliability score relies on.
    """

    #: short name used by the registry and experiment configuration
    name: str = "abstract"
    #: whether common prefix/suffix stripping preserves this metric's
    #: distances (true for the Levenshtein family); enables the shared
    #: fast-path preprocessing of :class:`repro.perf.DistanceEngine`
    affix_safe: bool = False
    #: how many bound-destroying edit operations one unigram mismatch may
    #: correspond to for this metric, or ``None`` when the unigram count
    #: filter of :mod:`repro.perf.qgram` is not a valid lower bound (which
    #: disables candidate pruning — batch queries fall back to a plain
    #: ordered scan).  ``1`` for Levenshtein; ``2`` for restricted Damerau,
    #: whose distance is at least half the Levenshtein distance
    qgram_edit_ops = None

    @abstractmethod
    def distance(self, left: str, right: str) -> float:
        """Dissimilarity of two strings (0 means identical)."""

    def bounded_distance(
        self, left: str, right: str, cutoff: float = math.inf
    ) -> "tuple[float, bool]":
        """``(distance, True)``, or ``(lower bound > cutoff, False)``.

        A metric with an early-exit form may stop once the distance is
        provably above ``cutoff``; the default always computes it exactly.
        """
        return self.distance(left, right), True

    def normalized(self, left: str, right: str) -> float:
        """Distance scaled into ``[0, 1]``.

        The default scales by the maximum possible raw distance for the two
        strings, which subclasses override when a tighter bound exists.
        """
        if left == right:
            return 0.0
        bound = self.max_distance(left, right)
        if bound <= 0:
            return 0.0
        return min(1.0, self.distance(left, right) / bound)

    def max_distance(self, left: str, right: str) -> float:
        """An upper bound of :meth:`distance` for the two strings."""
        return float(max(len(left), len(right), 1))

    def similarity(self, left: str, right: str) -> float:
        """Convenience: ``1 - normalized distance``."""
        return 1.0 - self.normalized(left, right)

    def distance_rows(
        self, values: Sequence[str], others: Sequence[str]
    ) -> "list[list[float]]":
        """``rows[i][j]`` is ``distance(values[i], others[j])``.

        The default loops over :meth:`distance`; a metric with a
        multi-pattern kernel measures every value in one run per other.
        """
        return [[self.distance(value, other) for other in others] for value in values]

    # ------------------------------------------------------------------
    # distances between value tuples (pieces of data)
    # ------------------------------------------------------------------
    def values_distance(self, left: Sequence[str], right: Sequence[str]) -> float:
        """Sum of per-position raw distances between two value tuples."""
        if len(left) != len(right):
            raise ValueError("value tuples must have the same length")
        return sum(self.distance(a, b) for a, b in zip(left, right))

    def values_normalized(self, left: Sequence[str], right: Sequence[str]) -> float:
        """Per-position normalised distances averaged into ``[0, 1]``."""
        if len(left) != len(right):
            raise ValueError("value tuples must have the same length")
        if not left:
            return 0.0
        return sum(self.normalized(a, b) for a, b in zip(left, right)) / len(left)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


_REGISTRY: dict[str, Callable[[], DistanceMetric]] = {}


def register_metric(name: str, factory: Callable[[], DistanceMetric]) -> None:
    """Register a metric factory under ``name`` (lower-cased)."""
    key = name.lower()
    if key in _REGISTRY:
        raise ValueError(f"distance metric {name!r} is already registered")
    _REGISTRY[key] = factory


def get_metric(name: str) -> DistanceMetric:
    """Instantiate the metric registered under ``name``.

    Accepts the registered short names (``"levenshtein"``, ``"cosine"``,
    ``"damerau"``, ``"jaccard"``), case-insensitively.
    """
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown distance metric {name!r}; available: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[key]()


def available_metrics() -> list[str]:
    """Names of all registered metrics."""
    return sorted(_REGISTRY)
