"""Comparison baselines.

The paper's experimental comparator is HoloClean (Rekatsinas et al., VLDB
2017), configured with a perfect (100 %-accuracy) external error detector so
only its repair quality is measured.  HoloClean itself is built on DeepDive
and is not available offline, so :mod:`repro.baselines.holoclean` implements a
faithful simplification: probabilistic per-cell repair over a factor graph
with co-occurrence, constraint and minimality features, trained on the clean
partition of the data (Section 7.2 describes exactly this regime and its
weaknesses, which the reproduction preserves).

A second, purely qualitative baseline (:mod:`repro.baselines.minimal_repair`)
applies the classic minimality principle the paper describes in its
introduction; it is used by the ablation benchmarks.  Every baseline's
``clean`` returns the same :class:`~repro.core.report.CleaningReport` as
MLNClean.
"""

from repro.baselines.factor_graph import CellFactorGraph, RepairCandidate
from repro.baselines.holoclean import HoloCleanBaseline, HoloCleanConfig
from repro.baselines.minimal_repair import MinimalityRepairer

__all__ = [
    "CellFactorGraph",
    "RepairCandidate",
    "HoloCleanBaseline",
    "HoloCleanConfig",
    "MinimalityRepairer",
]
