"""Per-component accuracy of the MLNClean stages (Section 7.3 of the paper).

The paper defines dedicated metrics for the three components:

* **AGP** — ``Precision-A`` is the fraction of correctly merged abnormal
  groups over all detected abnormal groups, ``Recall-A`` the fraction of
  correctly merged abnormal groups over all *real* abnormal groups, and
  ``#dag`` the total number of data pieces inside detected abnormal groups.
* **RSC** — ``Precision-R`` is the ratio of correctly repaired γs to all
  repaired γs and ``Recall-R`` the ratio of correctly repaired γs to the γs
  containing errors.
* **FSCR** — ``Precision-F`` is the fraction of attribute values correctly
  repaired by FSCR over the erroneous attribute values involved in detected
  conflicts, and ``Recall-F`` the same numerator over all erroneous attribute
  values.

Every stage outcome carries a :class:`StageCounts`.  The stages read no
ground truth: AGP counts only the abnormal groups and γs it detects, and
:func:`score_stages` fills every other counter once, after the run, from the
records the stages emit (AGP's merges, RSC's γ repairs, FSCR's fusions and
repaired table) and the injected-error ledger.  :class:`ComponentAccuracy`
derives the ratios.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.core.agp import AGPOutcome
    from repro.core.fscr import FSCROutcome
    from repro.core.index import Block
    from repro.core.rsc import GammaRepair, RSCOutcome
    from repro.dataset.table import Table
    from repro.errors.groundtruth import GroundTruth


@dataclass
class StageCounts:
    """Raw counters of one cleaning stage."""

    #: AGP: groups detected as abnormal / actually abnormal / merged correctly
    detected_abnormal_groups: int = 0
    real_abnormal_groups: int = 0
    correctly_merged_groups: int = 0
    #: AGP: total γs inside detected abnormal groups (#dag in the figures)
    detected_abnormal_gammas: int = 0
    #: RSC: γs rewritten / rewritten to their clean values / containing errors
    repaired_gammas: int = 0
    correctly_repaired_gammas: int = 0
    erroneous_gammas: int = 0
    #: FSCR: erroneous cells correct after FSCR (recall numerator), erroneous
    #: cells involved in detected conflicts, the correct ones among those
    #: (precision numerator), and all erroneous cells on surviving tuples
    fscr_correct_values: int = 0
    conflict_erroneous_values: int = 0
    conflict_correct_values: int = 0
    total_erroneous_values: int = 0

    def merge(self, other: "StageCounts") -> "StageCounts":
        """Sum two counter sets (stage outcomes fold their blocks' counts)."""
        merged = StageCounts()
        for name in vars(self):
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        return merged

    def as_dict(self) -> dict[str, int]:
        """All counters as a plain dictionary (JSON-safe, field order)."""
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: dict[str, int]) -> "StageCounts":
        """Rebuild the counters from :meth:`as_dict` output."""
        return cls(**{key: int(value) for key, value in data.items()})


def score_stages(
    dirty: Table,
    ground_truth: GroundTruth,
    blocks: list[Block],
    agp: Optional[AGPOutcome] = None,
    rsc: Optional[RSCOutcome] = None,
    fscr: Optional[FSCROutcome] = None,
    fused: Optional[Iterable[int]] = None,
) -> None:
    """Fill the ground-truth counters of the stage outcomes (Section 7.3).

    ``blocks`` are the blocks Stage I ran on, in their post-run state, and
    ``fused`` the tuples FSCR fused (default: every tuple of ``dirty``).
    Each outcome given is scored from its records:

    * **AGP** — a group of a fresh index of the blocks' rules over ``dirty``
      (the groups AGP started from) is *really* abnormal when no tuple's
      clean reason values equal its key; a merge is correct when at least
      half of the abnormal group's tuples have clean reason values equal to
      the target key.
    * **RSC** — a repair is correct when at least half of the loser γ's
      tuples have clean values equal to the winner; a γ is erroneous when
      some tuple of it has other clean values.  A winner γ's own tuples are
      its group's final tuples minus the group's loser tuples.
    * **FSCR** — every injected error on a fused tuple is counted, as
      correct when the repaired table holds its clean value, and as a
      conflict when its attribute is among the tuple's conflicted ones.
    """
    clean = ground_truth.clean_table(dirty)

    def clean_values(tid: int, attributes: list[str]) -> tuple[str, ...]:
        return clean.row(tid).values_for(attributes)

    def majority(tids: list[int], attributes: list[str], values: tuple) -> bool:
        hits = sum(clean_values(tid, attributes) == values for tid in tids)
        return bool(tids) and hits * 2 >= len(tids)

    if agp is not None:
        # the core package imports this module, so its index comes late
        from repro.core.index import MLNIndex

        fresh = MLNIndex.build(dirty, [block.rule for block in blocks]).blocks
        agp.counts.real_abnormal_groups = sum(
            all(
                clean_values(tid, block.rule.reason_attributes) != key
                for tid in group.tids
            )
            for block in fresh.values()
            for key, group in block.groups.items()
        )
        agp.counts.correctly_merged_groups = sum(
            majority(
                fresh[merge.block_name].groups[merge.abnormal_key].tids,
                fresh[merge.block_name].rule.reason_attributes,
                merge.target_key,
            )
            for merge in agp.merges
        )

    if rsc is not None:
        by_name = {block.name: block for block in blocks}
        by_group: dict[tuple, list[GammaRepair]] = {}
        for repair in rsc.repairs:
            by_group.setdefault((repair.block_name, repair.group_key), []).append(repair)
        counts = rsc.counts
        counts.repaired_gammas = len(rsc.repairs)
        counts.correctly_repaired_gammas = counts.erroneous_gammas = 0
        for (name, key), repairs in by_group.items():
            block = by_name[name]
            losers = {tid for repair in repairs for tid in repair.tids}
            own = [tid for tid in block.groups[key].tids if tid not in losers]
            gammas = [(own, repairs[0].repaired_values)]
            gammas += [(repair.tids, repair.original_values) for repair in repairs]
            counts.erroneous_gammas += sum(
                any(clean_values(tid, block.attributes) != values for tid in tids)
                for tids, values in gammas
            )
            counts.correctly_repaired_gammas += sum(
                majority(repair.tids, block.attributes, repair.repaired_values)
                for repair in repairs
            )

    if fscr is not None:
        fused = set(dirty.tids if fused is None else fused)
        counts = fscr.counts
        counts.total_erroneous_values = counts.fscr_correct_values = 0
        counts.conflict_erroneous_values = counts.conflict_correct_values = 0
        for error in ground_truth:
            tid, attribute = error.cell.tid, error.cell.attribute
            if tid not in fused or not dirty.has_tid(tid):
                continue
            correct = fscr.repaired.value(tid, attribute) == error.clean_value
            fusion = fscr.fusions.get(tid)
            conflicted = fusion is not None and attribute in fusion.conflicted_attributes
            counts.total_erroneous_values += 1
            counts.fscr_correct_values += correct
            counts.conflict_erroneous_values += conflicted
            counts.conflict_correct_values += conflicted and correct


@dataclass
class ComponentAccuracy:
    """Derived per-stage precision/recall figures."""

    counts: StageCounts = field(default_factory=StageCounts)

    # ------------------------------------------------------------------
    # AGP (Figures 8 and 12)
    # ------------------------------------------------------------------
    @property
    def precision_a(self) -> float:
        if self.counts.detected_abnormal_groups == 0:
            return 0.0
        return self.counts.correctly_merged_groups / self.counts.detected_abnormal_groups

    @property
    def recall_a(self) -> float:
        if self.counts.real_abnormal_groups == 0:
            return 1.0 if self.counts.detected_abnormal_groups == 0 else 0.0
        return self.counts.correctly_merged_groups / self.counts.real_abnormal_groups

    @property
    def detected_abnormal_gammas(self) -> int:
        """#dag: size of the detected abnormal groups in γs."""
        return self.counts.detected_abnormal_gammas

    # ------------------------------------------------------------------
    # RSC (Figures 9 and 13)
    # ------------------------------------------------------------------
    @property
    def precision_r(self) -> float:
        if self.counts.repaired_gammas == 0:
            return 1.0 if self.counts.erroneous_gammas == 0 else 0.0
        return self.counts.correctly_repaired_gammas / self.counts.repaired_gammas

    @property
    def recall_r(self) -> float:
        if self.counts.erroneous_gammas == 0:
            return 1.0
        return self.counts.correctly_repaired_gammas / self.counts.erroneous_gammas

    # ------------------------------------------------------------------
    # FSCR (Figures 10 and 14)
    # ------------------------------------------------------------------
    @property
    def precision_f(self) -> float:
        if self.counts.conflict_erroneous_values == 0:
            # No erroneous cell was involved in a detected conflict: FSCR had
            # nothing to decide, so it made no wrong decision.
            return 1.0
        return self.counts.conflict_correct_values / self.counts.conflict_erroneous_values

    @property
    def recall_f(self) -> float:
        if self.counts.total_erroneous_values == 0:
            return 1.0
        return self.counts.fscr_correct_values / self.counts.total_erroneous_values

    def as_dict(self) -> dict[str, float]:
        """All derived metrics as a flat dictionary."""
        return {
            "precision_a": self.precision_a,
            "recall_a": self.recall_a,
            "dag": float(self.detected_abnormal_gammas),
            "precision_r": self.precision_r,
            "recall_r": self.recall_r,
            "precision_f": self.precision_f,
            "recall_f": self.recall_f,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        values = ", ".join(f"{k}={v:.3f}" for k, v in self.as_dict().items())
        return f"ComponentAccuracy({values})"
