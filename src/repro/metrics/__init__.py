"""Evaluation metrics.

The paper reports repair accuracy as F1 over repaired cells (Eq. 7) and, for
the in-depth study of Section 7.3, per-component precision/recall for the
AGP, RSC and FSCR stages.  This package implements both families plus the
per-phase timing breakdown every report carries.
"""

from repro.metrics.accuracy import RepairAccuracy, evaluate_repair
from repro.metrics.component import ComponentAccuracy, StageCounts, score_stages
from repro.metrics.timing import TimingBreakdown

__all__ = [
    "RepairAccuracy",
    "evaluate_repair",
    "ComponentAccuracy",
    "StageCounts",
    "score_stages",
    "TimingBreakdown",
]
