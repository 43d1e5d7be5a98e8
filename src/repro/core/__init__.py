"""MLNClean: the paper's primary contribution.

The cleaning pipeline follows Algorithm 1 of the paper:

1. build the two-layer **MLN index** (blocks per rule, groups per reason
   value) — :mod:`repro.core.index`,
2. **Stage I** per block: abnormal-group processing (**AGP**,
   :mod:`repro.core.agp`) followed by reliability-score cleaning (**RSC**,
   :mod:`repro.core.rsc`), producing one clean data version per block,
3. **Stage II**: fusion-score conflict resolution (**FSCR**,
   :mod:`repro.core.fscr`) across the data versions, then duplicate
   elimination (:mod:`repro.core.dedup`).

:class:`repro.core.pipeline.MLNClean` runs these steps in this fixed order
and produces a :class:`repro.core.report.CleaningReport`.
"""

from repro.core.config import MLNCleanConfig
from repro.core.index import Block, DataPiece, Group, MLNIndex
from repro.core.agp import AbnormalGroupProcessor, AGPOutcome
from repro.core.rsc import ReliabilityScoreCleaner, RSCOutcome
from repro.core.fscr import FusionScoreResolver, FSCROutcome
from repro.core.dedup import remove_duplicates
from repro.core.report import CleaningReport
from repro.core.pipeline import MLNClean

__all__ = [
    "MLNCleanConfig",
    "MLNIndex",
    "Block",
    "Group",
    "DataPiece",
    "AbnormalGroupProcessor",
    "AGPOutcome",
    "ReliabilityScoreCleaner",
    "RSCOutcome",
    "FusionScoreResolver",
    "FSCROutcome",
    "remove_duplicates",
    "CleaningReport",
    "MLNClean",
]
