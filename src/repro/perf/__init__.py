"""Performance subsystem: the shared distance engine and its helpers.

:mod:`repro.perf.engine` provides the cached / pruned / early-exit
:class:`DistanceEngine` every stage runs its string distances through, with
one scalar exact-or-prune evaluation path behind its batch candidate-set API
and the positional unigram lower bounds of :mod:`repro.perf.qgram` (computed
from each value tuple's cached profile) ordering candidates, over a
:class:`CandidateSet` prepared once for many queries;
:mod:`repro.perf.stats` holds the latency window the service reports from.
"""

from repro.perf.engine import (
    CandidateSet,
    DistanceEngine,
    DistanceStats,
    global_distance_stats,
    reset_global_distance_stats,
)
from repro.perf.qgram import build_profile
from repro.perf.stats import LatencyWindow

__all__ = [
    "CandidateSet",
    "DistanceEngine",
    "DistanceStats",
    "LatencyWindow",
    "build_profile",
    "global_distance_stats",
    "reset_global_distance_stats",
]
