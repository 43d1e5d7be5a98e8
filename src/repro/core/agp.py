"""AGP — abnormal group processing (Section 5.1.1 of the paper).

A tuple with an error in the *reason part* of a rule lands in the wrong group
of that rule's block (e.g. the typo ``DOTH`` forms the spurious group G12 in
Figure 2).  AGP detects such groups with a simple support threshold — a group
related to at most τ tuples is abnormal — and merges every abnormal group
into its nearest *normal* group of the same block, where the group distance
is the distance between the groups' representative γ*s.

The complexity is ``O(|B| × |Ga| × |G − Ga|)`` per the paper.  AGP is also the
stage with "the biggest propagated impact to the final cleaning accuracy",
which is why the experiments of Figures 8 and 12 track its precision/recall
explicitly.  AGP itself reads no ground truth: it counts the abnormal groups
and γs it detects in ``counts``, and
:func:`~repro.metrics.component.score_stages` derives the rest of those
metrics from its :class:`GroupMerge` records after the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.config import MLNCleanConfig
from repro.core.index import Block
from repro.metrics.component import StageCounts
from repro.perf.engine import CandidateSet, DistanceEngine


@dataclass
class GroupMerge:
    """One AGP merge decision: which group was folded into which."""

    block_name: str
    abnormal_key: tuple[str, ...]
    target_key: tuple[str, ...]
    gamma_count: int
    tuple_count: int


@dataclass
class AGPOutcome:
    """Result of running AGP on one block (or on a whole index)."""

    merges: list[GroupMerge] = field(default_factory=list)
    skipped_without_target: int = 0
    counts: StageCounts = field(default_factory=StageCounts)

    def extend(self, other: "AGPOutcome") -> None:
        """Fold another outcome into this one (used across blocks)."""
        self.merges.extend(other.merges)
        self.skipped_without_target += other.skipped_without_target
        self.counts = self.counts.merge(other.counts)


class AbnormalGroupProcessor:
    """Detects abnormal groups and merges them into their nearest normal group."""

    def __init__(
        self,
        config: Optional[MLNCleanConfig] = None,
        engine: Optional[DistanceEngine] = None,
    ):
        self.config = config or MLNCleanConfig()
        #: the shared distance engine; the pipeline passes its run-wide
        #: instance so AGP, RSC and the other stages share one cache
        self.engine: DistanceEngine = (
            engine if engine is not None else self.config.engine()
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def process_block(
        self,
        block: Block,
        group_filter: Optional[Callable] = None,
    ) -> AGPOutcome:
        """Run AGP on one block, mutating it in place.

        ``group_filter`` restricts the merge candidates to the abnormal
        groups it accepts (dirty-cell-scoped cleaning): merging an abnormal
        group rewrites the reason-part values of its tuples, so a scoped run
        only merges groups holding at least one detected-dirty tuple and
        leaves the rest untouched.
        """
        outcome = AGPOutcome()
        threshold = self.config.abnormal_threshold
        abnormal_keys = [
            key
            for key, group in block.groups.items()
            if group.tuple_count <= threshold
            and (group_filter is None or group_filter(group))
        ]
        abnormal_set = set(abnormal_keys)
        # Sorted once per block (hoisted out of the per-abnormal-group loop):
        # the best-so-far search below is order-independent in its *result*
        # (strict improvement plus a smallest-key tie-break), but a canonical
        # order keeps its distance-call counts reproducible across processes
        # regardless of set-iteration (hash) order.
        normal_keys = sorted(key for key in block.groups if key not in abnormal_set)
        # Normal groups are never removed during a pass and only a merge
        # target changes, so each γ* is derived, interned and profiled once
        # and refreshed after every merge into its group.
        representatives = self.engine.prepare(
            block.groups[key].representative().values
            for key in (normal_keys if abnormal_keys else ())
        )

        for key in abnormal_keys:
            group = block.groups[key]
            outcome.counts.detected_abnormal_groups += 1
            outcome.counts.detected_abnormal_gammas += group.size
            position = self._nearest_normal_group(
                group.representative().values, representatives
            )
            if position is None:
                # No normal group exists in the block (e.g. every group is
                # tiny); leave the group untouched rather than merging
                # abnormal groups into each other.
                outcome.skipped_without_target += 1
                continue
            target_key = normal_keys[position]
            merge = self._merge(block, key, target_key)
            self.engine.update(
                representatives,
                position,
                block.groups[target_key].representative().values,
            )
            outcome.merges.append(merge)
        return outcome

    def process_index(
        self,
        blocks: list[Block],
        group_filter: Optional[Callable] = None,
    ) -> AGPOutcome:
        """Run AGP on every block of an index."""
        outcome = AGPOutcome()
        for block in blocks:
            outcome.extend(self.process_block(block, group_filter))
        return outcome

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _nearest_normal_group(
        self,
        abnormal_values: tuple[str, ...],
        representatives: CandidateSet,
    ) -> Optional[int]:
        """The position of the normal group whose representative γ* is closest.

        One batch :meth:`~repro.perf.DistanceEngine.nearest` query over the
        normal groups' current representatives, prepared once per block pass
        and aligned with the sorted ``normal_keys``: the query profiles only
        itself and bounds every prepared candidate in one loop, and the
        engine owns the visit order (unigram lower bounds ascending), the
        best-so-far cutoff and the prune decisions.  Its smallest-position
        tie-break is therefore exactly the smallest-key tie-break of the
        scalar loop it replaces — the selected group is identical to the one
        an exhaustive scan picks.
        """
        if not representatives.values:
            return None
        return self.engine.nearest(abnormal_values, representatives)[0]

    def _merge(
        self, block: Block, abnormal_key: tuple[str, ...], target_key: tuple[str, ...]
    ) -> GroupMerge:
        """Fold the abnormal group's γs into the target group."""
        abnormal_group = block.remove_group(abnormal_key)
        target_group = block.groups[target_key]
        for piece in abnormal_group.gammas:
            target_group.add_piece(piece)
        return GroupMerge(
            block_name=block.name,
            abnormal_key=abnormal_key,
            target_key=target_key,
            gamma_count=abnormal_group.size,
            tuple_count=abnormal_group.tuple_count,
        )
