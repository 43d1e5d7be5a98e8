"""RSC — reliability-score based cleaning inside each group (Section 5.1.2).

After AGP every group of a block holds the γs that *should* agree on the
rule's result part.  When a group still contains several distinct γs, some of
them must be dirty.  RSC ranks the γs by the reliability score of
Definition 2,

    r-score(γ) = min_{γ* ∈ G∖{γ}} dist(γ, γ*) × w(γ)

where ``dist(γ, γ*) = n/Z · d(γ, γ*)`` combines the distance (the principle
of minimality: replacing a far-away, well-supported γ is expensive) with the
Markov weight ``w(γ)`` learned from the evidence (the statistical signal).
The γ with the highest score is declared clean and every other γ of the group
is overwritten with it, so each group ends with exactly one γ.

Weight learning is the expensive part of MLNClean (the paper attributes about
95 % of its runtime to it); it runs once per block before the per-group
cleaning: an exact Newton solve of each group's pseudo-likelihood anchored
at the Eq.-4 prior (see :mod:`repro.mln.weights`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.config import MLNCleanConfig
from repro.core.index import Block, DataPiece, Group
from repro.metrics.component import StageCounts
from repro.mln.weights import learn_group_weights
from repro.perf.engine import DistanceEngine


@dataclass
class GammaRepair:
    """One RSC rewrite: a losing γ replaced by the group winner."""

    block_name: str
    group_key: tuple[str, ...]
    original_values: tuple[str, ...]
    repaired_values: tuple[str, ...]
    tids: list[int]


@dataclass
class RSCOutcome:
    """Result of running RSC on one block (or a whole index)."""

    repairs: list[GammaRepair] = field(default_factory=list)
    cleaned_groups: int = 0
    skipped_groups: int = 0
    counts: StageCounts = field(default_factory=StageCounts)

    def extend(self, other: "RSCOutcome") -> None:
        self.repairs.extend(other.repairs)
        self.cleaned_groups += other.cleaned_groups
        self.skipped_groups += other.skipped_groups
        self.counts = self.counts.merge(other.counts)


class ReliabilityScoreCleaner:
    """Learns block weights and resolves every group to a single γ."""

    def __init__(
        self,
        config: Optional[MLNCleanConfig] = None,
        engine: Optional[DistanceEngine] = None,
    ):
        self.config = config or MLNCleanConfig()
        #: the shared distance engine; persists across calls, so re-cleaning
        #: an unchanged block (streaming replay) re-reads every γ-pair
        #: distance from the cache instead of re-running the metric
        self.engine: DistanceEngine = (
            engine if engine is not None else self.config.engine()
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def learn_block_weights(self, block: Block) -> None:
        """Learn the Markov weight of every γ of the block (Eq. 3 / Eq. 4).

        Groups compete internally (softmax over the group's γs), and the
        Eq.-4 prior ``c(γ)/Σc(γ')`` anchors the solution; each group's
        objective is solved to its optimum by :func:`learn_group_weights`.
        """
        pieces = block.pieces
        if not pieces:
            return
        total_support = sum(piece.support for piece in pieces)
        priors = {
            piece.key: (piece.support / total_support if total_support else 0.0)
            for piece in pieces
        }
        group_counts = {
            group.key: {piece.key: piece.support for piece in group.gammas}
            for group in block.group_list
        }
        learned = learn_group_weights(group_counts, priors, self.config.weight_learning)
        for group in block.group_list:
            for piece in group.gammas:
                piece.weight = learned.get(piece.key, 0.0)

    def clean_block(
        self,
        block: Block,
        relearn_weights: bool = True,
        group_filter: Optional[Callable[[Group], bool]] = None,
    ) -> RSCOutcome:
        """Learn weights, then resolve every group of the block to one γ.

        ``relearn_weights=False`` keeps the weights already attached to the
        block's γs — the distributed driver uses this after replacing the
        locally learned weights with the Eq.-6 global ones.

        ``group_filter`` restricts γ resolution to the groups it accepts
        (dirty-cell-scoped cleaning); weight learning stays block-global
        regardless — the Eq.-4 prior normalises over the whole block, so a
        filtered run still learns exactly the weights a full run would.
        """
        if relearn_weights:
            self.learn_block_weights(block)
        outcome = RSCOutcome()
        for group in block.group_list:
            if group.is_resolved():
                outcome.skipped_groups += 1
                continue
            if group_filter is not None and not group_filter(group):
                outcome.skipped_groups += 1
                continue
            outcome.repairs.extend(self._clean_group(block, group))
            outcome.cleaned_groups += 1
        return outcome

    def clean_index(
        self,
        blocks: list[Block],
        relearn_weights: bool = True,
        group_filter: Optional[Callable[[Group], bool]] = None,
    ) -> RSCOutcome:
        outcome = RSCOutcome()
        for block in blocks:
            outcome.extend(self.clean_block(block, relearn_weights, group_filter))
        return outcome

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def reliability_scores(self, group: Group) -> dict[DataPiece, float]:
        """The r-score of every γ of a multi-γ group (Definition 2).

        The probability factor of the definition is ``Pr(γ) ∝ exp(w(γ))``
        (Eq. 2 / Eq. 3); the exponential is normalised by the group's maximum
        weight so it stays in ``(0, 1]`` — this keeps the score positive (the
        distance factor would otherwise flip its meaning for γs whose learned
        weight is negative) while preserving the weight ordering the paper
        relies on.
        """
        gammas = group.gammas
        if len(gammas) < 2:
            return {piece: 1.0 for piece in gammas}
        # One batch pairwise() query answers every γ's min-distance: the
        # engine bounds each unordered γ pair once, walks the pairs
        # bounds-ascending and evaluates a pair once for both γs, unless its
        # bound already exceeds both γs' running minima.  The minima are
        # exact (a skipped pair cannot reach either minimum), so the scores
        # are identical to the exhaustive scan's.
        neighbors = self.engine.pairwise([piece.values for piece in gammas])
        raw: dict[DataPiece, float] = {
            piece: piece.support * neighbors[index][1]
            for index, piece in enumerate(gammas)
        }
        # Z normalises n·d into [0, 1] within the group.
        normaliser = max(raw.values()) or 1.0
        max_weight = max(piece.weight for piece in gammas)
        return {
            piece: (raw[piece] / normaliser) * math.exp(piece.weight - max_weight)
            for piece in gammas
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _clean_group(self, block: Block, group: Group) -> list[GammaRepair]:
        """Overwrite every γ of the group but its winner; one record per loser."""
        scores = self.reliability_scores(group)
        winner = max(
            group.gammas, key=lambda piece: (scores[piece], piece.support, piece.values)
        )
        repairs = []
        for piece in group.gammas:
            if piece is winner:
                continue
            repairs.append(
                GammaRepair(
                    block_name=block.name,
                    group_key=group.key,
                    original_values=piece.values,
                    repaired_values=winner.values,
                    tids=list(piece.tids),
                )
            )
            winner.tids.extend(piece.tids)
            del group.pieces[piece.key]
        return repairs
