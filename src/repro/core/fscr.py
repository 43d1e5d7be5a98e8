"""FSCR — fusion-score based conflict resolution (Section 5.2, Algorithm 2).

Stage I leaves one clean γ per group but up to ``|B|`` *data versions* per
tuple — one from every block — and those versions can disagree on shared
attributes (tuple t3 of the running example keeps ``CT = DOTHAN`` in block B1
and ``CT = BOAZ`` in block B3).  FSCR fuses the versions of each tuple into a
single assignment, preferring the fusion with the highest *fusion score*

    f-score(t) = w(γ¹) × w(γ²) × ... × w(γᵐ)

(the product of the fused γ weights, Eq. 5).  When two versions conflict, the
conflicting version can be swapped for the highest-weight γ of its block that
does not conflict with what has been fused so far; if no such γ exists the
fusion attempt fails (f-score 0), matching Algorithm 2.

Because the fusion result depends on the merge order, the search tries every
order when the number of versions is small (``fscr_exhaustive_limit``) and
otherwise tries each version as the starting point followed by the remaining
versions in decreasing weight order — the factorial search of the paper,
bounded for large rule sets.

The order search reads only a tuple's data versions, never its row, so one
:meth:`FusionScoreResolver.resolve` memoizes it per *version signature* (the
γ values and weight of every version, in block order): each merge order's
surviving assignment, weight product and substitution count, plus the
attributes found in conflict.  The minimality factor is the one term that
reads the tuple's current row; it is applied per tuple to the memoized
attempts, in order-search order with a strict ``>`` tie-break, so the chosen
fusion equals a per-tuple search.  Each γ's ``(attribute, value)`` pairs and
``exp(w)`` factor are built once per resolve, and conflicts are plain
``dict.get`` comparisons.  The substitution search is memoized too, keyed on
the block and the fused assignment's values on that block's attributes — the
only part of the assignment the search reads — and storing the first agreeing
γ of the weight-sorted pool, or ``None`` when there is none.  Both memos are
exact because the pools and weights are fixed within one resolve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.config import MLNCleanConfig
from repro.core.index import Block, DataPiece
from repro.dataset.table import Cell, Table
from repro.metrics.component import StageCounts

CleanLookup = Callable[[int], dict[str, str]]

#: learned weights are capped here before exponentiation so the fusion-score
#: product cannot overflow even for tuples covered by many rules.
_WEIGHT_CAP = 30.0


def _weight_factor(weight: float) -> float:
    """The positive factor a γ contributes to the fusion score.

    The paper's fusion score multiplies γ weights (Eq. 5); because learned
    weights can be negative the product is taken over ``exp(w)`` instead —
    ``Pr(γ) ∝ exp(w)`` by Eq. 2, and the exponential preserves the weight
    ordering while keeping every factor positive.
    """
    return math.exp(min(weight, _WEIGHT_CAP))


@dataclass
class TupleFusion:
    """The fusion chosen for one tuple."""

    tid: int
    assignment: dict[str, str]
    conflicted_attributes: set[str] = field(default_factory=set)
    substitutions: int = 0


@dataclass
class FSCROutcome:
    """Result of running FSCR over the whole table."""

    repaired: Table
    fusions: dict[int, TupleFusion] = field(default_factory=dict)
    failed_tuples: list[int] = field(default_factory=list)
    counts: StageCounts = field(default_factory=StageCounts)
    #: tuples whose merge-order search was served from the per-resolve memo,
    #: which is keyed on the tuple's data versions only (tuples with the same
    #: γ values and weights per block share one order search; each still
    #: applies the minimality factor against its own row)
    memo_hits: int = 0


#: one merge order's surviving fusion: (assignment, weight product,
#: substitutions) — the f-score before the minimality factor
_Attempt = tuple[dict[str, str], float, int]


#: a γ's ``(attribute, value)`` pairs, its attributes and its ``exp(w)``
#: fusion-score factor
_PieceFacts = tuple[tuple[tuple[str, str], ...], tuple[str, ...], float]


class _PieceCache(dict):
    """γ → its :data:`_PieceFacts`, built once per :meth:`resolve`."""

    def __missing__(self, piece: DataPiece) -> _PieceFacts:
        assignment = piece.as_assignment()
        facts = self[piece] = (
            tuple(assignment.items()),
            tuple(assignment),
            _weight_factor(piece.weight),
        )
        return facts


class FusionScoreResolver:
    """Derives the unified clean table from the per-block data versions."""

    def __init__(self, config: Optional[MLNCleanConfig] = None):
        self.config = config or MLNCleanConfig()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def resolve(
        self,
        dirty: Table,
        blocks: list[Block],
        clean_lookup: Optional[CleanLookup] = None,
        dirty_cells: Optional[set[Cell]] = None,
    ) -> FSCROutcome:
        """Fuse the data versions of every tuple and apply them to a copy.

        ``clean_lookup`` and ``dirty_cells`` (the injected cells) enable the
        Precision-F / Recall-F instrumentation.
        """
        repaired = dirty.copy(name=f"{dirty.name}-repaired")
        outcome = FSCROutcome(repaired=repaired)
        tid_versions = self._versions_by_tid(blocks, set(dirty.tids))
        block_candidates = self._candidates_by_block(blocks)
        pieces = _PieceCache()
        # (block name, the fused values on the block's attributes) → the
        # first agreeing γ of the block's weight-sorted pool, or None
        substitutes: dict[tuple, Optional[DataPiece]] = {}

        # The order search depends only on the tuple's data versions (γ
        # values and weights per block, in block order), so it runs once per
        # distinct version signature.  Only the minimality factor reads the
        # tuple's own row; it is applied per tuple to the memoized attempts.
        memo: dict[tuple, Optional[tuple[list[_Attempt], frozenset]]] = {}
        for tid in dirty.tids:
            versions = tid_versions.get(tid)
            if not versions:
                continue
            signature = tuple(
                (block.name, piece.values, piece.weight) for block, piece in versions
            )
            if signature in memo:
                outcome.memo_hits += 1
                cached = memo[signature]
            else:
                cached = memo[signature] = self._fuse_signature(
                    versions, block_candidates, pieces, substitutes
                )
            if cached is None:
                outcome.failed_tuples.append(tid)
                continue
            attempts, conflicted = cached
            assignment, _, substitutions = self._best_attempt(
                attempts, dirty.row(tid).as_dict()
            )
            fusion = TupleFusion(
                tid=tid,
                assignment=dict(assignment),
                conflicted_attributes=set(conflicted),
                substitutions=substitutions,
            )
            outcome.fusions[tid] = fusion
            for attribute, value in fusion.assignment.items():
                repaired.set_value(tid, attribute, value)

        if clean_lookup is not None and dirty_cells is not None:
            self._instrument(outcome, dirty, repaired, clean_lookup, dirty_cells)
        return outcome

    # ------------------------------------------------------------------
    # fusion search
    # ------------------------------------------------------------------
    def _fuse_signature(
        self,
        versions: list[tuple[Block, DataPiece]],
        block_candidates: dict[str, list[DataPiece]],
        pieces: _PieceCache,
        substitutes: dict[tuple, Optional[DataPiece]],
    ) -> Optional[tuple[list[_Attempt], frozenset]]:
        """Every surviving merge order of one version signature (Algorithm 2).

        Returns the attempts in order-search order plus the attributes any
        order found in conflict, or ``None`` when every merge order fails.
        """
        conflicted_attributes: set[str] = set()
        attempts: list[_Attempt] = []
        for order in self._merge_orders(versions):
            attempt = self._try_order(
                order, block_candidates, conflicted_attributes, pieces, substitutes
            )
            if attempt is not None:
                attempts.append(attempt)
        if not attempts:
            return None
        return attempts, frozenset(conflicted_attributes)

    def _best_attempt(
        self, attempts: list[_Attempt], current_values: dict[str, str]
    ) -> _Attempt:
        """The first attempt with the highest f-score for one tuple's row."""
        bias = self.config.fscr_minimality_bias
        best, best_score = attempts[0], 0.0
        for index, attempt in enumerate(attempts):
            assignment, f_score, _ = attempt
            # Minimality factor: fusions that rewrite fewer of the tuple's
            # values are preferred when the weight products are comparable
            # (the paper's cleaning criteria combine statistical evidence with
            # the principle of minimality; this extension is one of the
            # departures listed in ROADMAP item 4).
            if bias > 0.0:
                changes = sum(
                    1
                    for attribute, value in assignment.items()
                    if current_values.get(attribute) != value
                )
                f_score *= math.exp(-bias * changes)
            if index == 0 or f_score > best_score:
                best, best_score = attempt, f_score
        return best

    def _merge_orders(
        self, versions: list[tuple[Block, DataPiece]]
    ) -> list[list[tuple[Block, DataPiece]]]:
        """The fusion orders to try.

        All permutations up to ``fscr_exhaustive_limit`` versions; otherwise
        each version leads once, followed by the rest in decreasing weight
        order (a greedy approximation of the factorial search).
        """
        if len(versions) <= self.config.fscr_exhaustive_limit:
            return [list(order) for order in itertools.permutations(versions)]
        orders: list[list[tuple[Block, DataPiece]]] = []
        for index, leader in enumerate(versions):
            rest = versions[:index] + versions[index + 1 :]
            rest.sort(key=lambda item: item[1].weight, reverse=True)
            orders.append([leader, *rest])
        return orders

    @staticmethod
    def _try_order(
        order: list[tuple[Block, DataPiece]],
        block_candidates: dict[str, list[DataPiece]],
        conflicted_attributes: set[str],
        pieces: _PieceCache,
        substitutes: dict[tuple, Optional[DataPiece]],
    ) -> Optional[_Attempt]:
        """Fuse the versions in one specific order; ``None`` when it fails."""
        assignment: dict[str, str] = {}
        product = 1.0
        substitutions = 0
        for block, candidate in order:
            candidate_pairs, attributes, factor = pieces[candidate]
            conflicts = [a for a, v in candidate_pairs if assignment.get(a, v) != v]
            if conflicts:
                conflicted_attributes.update(conflicts)
                # every γ of a block shares its attributes, so the search
                # reads only the fusion's values on them
                key = (block.name, *map(assignment.get, attributes))
                if key in substitutes:
                    candidate = substitutes[key]
                else:
                    candidate = substitutes[key] = FusionScoreResolver._substitute(
                        assignment, block_candidates[block.name], pieces
                    )
                if candidate is None:
                    return None
                candidate_pairs, _, factor = pieces[candidate]
                substitutions += 1
            for attribute, value in candidate_pairs:
                assignment.setdefault(attribute, value)
            product *= factor
        return assignment, product, substitutions

    @staticmethod
    def _substitute(
        assignment: dict[str, str], pool: list[DataPiece], pieces: _PieceCache
    ) -> Optional[DataPiece]:
        """The highest-weight γ of a block's pool that agrees with the fusion."""
        for candidate in pool:
            if all(assignment.get(a, v) == v for a, v in pieces[candidate][0]):
                return candidate
        return None

    # ------------------------------------------------------------------
    # precomputed lookups
    # ------------------------------------------------------------------
    @staticmethod
    def _versions_by_tid(
        blocks: list[Block], tids: Optional[set[int]] = None
    ) -> dict[int, list[tuple[Block, DataPiece]]]:
        """For each tuple, its post-Stage-I γ in every block that covers it.

        ``tids`` restricts the map to the tuples being resolved — the
        streaming engine fuses small affected subsets against blocks that
        index the whole retained table, so building versions for every
        indexed tuple would scale with table size instead of subset size.
        """
        versions: dict[int, list[tuple[Block, DataPiece]]] = {}
        for block in blocks:
            for group in block.group_list:
                for piece in group.gammas:
                    for tid in piece.tids:
                        if tids is None or tid in tids:
                            versions.setdefault(tid, []).append((block, piece))
        return versions

    @staticmethod
    def _candidates_by_block(blocks: list[Block]) -> dict[str, list[DataPiece]]:
        """Per block (by rule name), all post-Stage-I γs sorted by weight.

        Several :class:`Block` objects can share a rule name when the caller
        is the distributed driver (one block per rule *per partition*); their
        candidate pools are merged so the substitution search sees the global
        pool, as the paper's gather step intends.
        """
        candidates: dict[str, list[DataPiece]] = {}
        for block in blocks:
            candidates.setdefault(block.name, []).extend(block.pieces)
        for pieces in candidates.values():
            pieces.sort(key=lambda piece: piece.weight, reverse=True)
        return candidates

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------
    def _instrument(
        self,
        outcome: FSCROutcome,
        dirty: Table,
        repaired: Table,
        clean_lookup: CleanLookup,
        dirty_cells: set[Cell],
    ) -> None:
        """Fill the Precision-F / Recall-F counters (Section 7.3)."""
        counts = outcome.counts
        for cell in dirty_cells:
            if not repaired.has_tid(cell.tid):
                continue
            counts.total_erroneous_values += 1
            clean_value = clean_lookup(cell.tid)[cell.attribute]
            repaired_value = repaired.value(cell.tid, cell.attribute)
            is_correct = repaired_value == clean_value
            if is_correct:
                counts.fscr_correct_values += 1
            fusion = outcome.fusions.get(cell.tid)
            involved_in_conflict = (
                fusion is not None and cell.attribute in fusion.conflicted_attributes
            )
            if involved_in_conflict:
                counts.conflict_erroneous_values += 1
                if is_correct:
                    counts.conflict_correct_values += 1
