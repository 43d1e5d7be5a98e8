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

The search runs on integer-coded γs.  Each :meth:`FusionScoreResolver.resolve`
numbers every attribute's values (from 1; 0 means "unassigned") in the pass
that builds the blocks' weight-sorted pools, and gives each attribute a fixed
bit field wide enough for its ids.  A γ is then a *word* (its value ids in
their fields), a *field mask* (the fields of its attributes) and its
``exp(w)`` factor.  Two assignments conflict when ``(word ^ other) & mask &
other_mask`` is non-zero, and merging them is an OR.

The order search reads only a tuple's data versions, never its row, so it is
memoized per *version signature* (the γ values and weight of every version, in
block order): each merge order's surviving word, weight product, substitution
count and chosen γs, plus the attributes found in conflict.  The minimality
factor is the one term that reads the tuple's current row; it is applied per
tuple to the memoized attempts, in order-search order with a strict ``>``
tie-break, so the chosen fusion equals a per-tuple search, and the winner's
assignment is rebuilt from its chosen γs in its own merge order.  The
substitution search is memoized too, keyed on the block and the fused word
restricted to that block's fields — the only part of the assignment the search
reads — and storing the first agreeing γ of the weight-sorted pool, or
``None`` when there is none.  Both memos are exact because the pools, weights
and value ids are fixed within one resolve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from collections.abc import Iterable
from typing import Optional

from repro.core.config import MLNCleanConfig
from repro.core.index import Block, DataPiece
from repro.dataset.table import Table
from repro.metrics.component import StageCounts

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


#: a γ coded for one resolve: (word, field mask, ``exp(w)`` factor, its
#: ``(attribute, value)`` pairs)
_Fact = tuple[int, int, float, tuple[tuple[str, str], ...]]

#: one merge order's surviving fusion: (index of its word among the
#: signature's distinct words, weight product, substitutions, chosen γs in
#: merge order) — the f-score before the minimality factor
_Attempt = tuple[int, float, int, list[_Fact]]


@dataclass
class _Search:
    """The memoized order search of one version signature."""

    attempts: list[_Attempt]
    #: per distinct fused word, in order of appearance: its first attempt
    firsts: list[int]
    conflicted: frozenset
    #: the assignments built so far, by attempt
    assignments: dict[int, dict[str, str]] = field(default_factory=dict)

    def assignment(self, index: int) -> dict[str, str]:
        """One attempt's assignment, keyed in its own merge order."""
        built = self.assignments.get(index)
        if built is None:
            built = self.assignments[index] = {}
            for fact in self.attempts[index][3]:
                for attribute, value in fact[3]:
                    built.setdefault(attribute, value)
        return built

    def winner(self, current: dict[str, str], bias: float) -> int:
        """The first attempt with the highest f-score for one tuple's row."""
        if len(self.attempts) == 1:
            return 0
        penalties = [1.0] * len(self.firsts)
        if bias > 0.0:
            # Minimality factor: fusions that rewrite fewer of the tuple's
            # values are preferred when the weight products are comparable
            # (the paper's cleaning criteria combine statistical evidence with
            # the principle of minimality; this extension is one of the
            # departures from the paper listed in ROADMAP.md's fidelity item,
            # item 2).  Every attempt fusing one word makes the same changes.
            penalties = [
                math.exp(
                    -bias
                    * sum(
                        1
                        for attribute, value in self.assignment(first).items()
                        if current.get(attribute) != value
                    )
                )
                for first in self.firsts
            ]
        best, best_score = 0, 0.0
        for index, (word, product, _, _) in enumerate(self.attempts):
            f_score = product * penalties[word]
            if index == 0 or f_score > best_score:
                best, best_score = index, f_score
        return best


class _Coding:
    """Value ids, bit fields and coded γs of one :meth:`resolve`."""

    def __init__(self, blocks: list[Block]):
        pools: dict[str, list[DataPiece]] = {}
        pairs: dict[DataPiece, tuple[tuple[str, str], ...]] = {}
        # attribute → value → id (from 1)
        ids: dict[str, dict[str, int]] = {}
        for block in blocks:
            pool = pools.setdefault(block.name, [])
            for piece in block.pieces:
                pool.append(piece)
                piece_pairs = pairs[piece] = tuple(piece.as_assignment().items())
                for attribute, value in piece_pairs:
                    values = ids.setdefault(attribute, {})
                    if value not in values:
                        values[value] = len(values) + 1
        # attribute → (shift, field); the fields tile the word from bit 0
        fields: dict[str, tuple[int, int]] = {}
        #: bit position → (attribute, field) of the field holding it
        self.owner: list[tuple[str, int]] = []
        for attribute, values in ids.items():
            width = len(values).bit_length()
            bits = ((1 << width) - 1) << len(self.owner)
            fields[attribute] = (len(self.owner), bits)
            self.owner.extend([(attribute, bits)] * width)
        self.facts: dict[DataPiece, _Fact] = {}
        for piece, piece_pairs in pairs.items():
            word = mask = 0
            for attribute, value in piece_pairs:
                shift, bits = fields[attribute]
                word |= ids[attribute][value] << shift
                mask |= bits
            self.facts[piece] = (word, mask, _weight_factor(piece.weight), piece_pairs)
        #: per block name (the distributed driver's per-partition blocks share
        #: one, so the substitution search sees the global pool, as the
        #: paper's gather step intends): every γ's fact, sorted by weight
        self.pools: dict[str, list[_Fact]] = {}
        for name, pool in pools.items():
            pool.sort(key=lambda piece: piece.weight, reverse=True)
            self.pools[name] = [self.facts[piece] for piece in pool]

    def fields_in(self, bits: int) -> list[tuple[str, int]]:
        """``(attribute, field)`` of every field holding a set bit of ``bits``."""
        found = []
        while bits:
            attribute, field_bits = self.owner[(bits & -bits).bit_length() - 1]
            found.append((attribute, field_bits))
            bits &= ~field_bits
        return found


class FusionScoreResolver:
    """Derives the unified clean table from the per-block data versions."""

    def __init__(self, config: Optional[MLNCleanConfig] = None):
        self.config = config or MLNCleanConfig()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def resolve(self, dirty: Table, blocks: list[Block]) -> FSCROutcome:
        """Fuse the data versions of every tuple and apply them to a copy.

        Only cells whose value the fusion changes are written.
        """
        repaired = dirty.copy(name=f"{dirty.name}-repaired")
        outcome = FSCROutcome(repaired=repaired)
        tid_versions = self._versions_by_tid(blocks, set(dirty.tids))
        coding = _Coding(blocks)
        bias = self.config.fscr_minimality_bias
        # (block name, the fused word on the block's fields) → the first
        # agreeing γ of the block's weight-sorted pool, or None
        substitutes: dict[tuple[str, int], Optional[_Fact]] = {}

        # The order search depends only on the tuple's data versions (γ
        # values and weights per block, in block order), so it runs once per
        # distinct version signature.  Only the minimality factor reads the
        # tuple's own row; it is applied per tuple to the memoized attempts.
        memo: dict[tuple, Optional[_Search]] = {}
        for tid in dirty.tids:
            versions = tid_versions.get(tid)
            if not versions:
                continue
            signature = tuple(
                (block.name, piece.values, piece.weight) for block, piece in versions
            )
            if signature in memo:
                outcome.memo_hits += 1
                search = memo[signature]
            else:
                search = memo[signature] = self._search(
                    versions, coding, substitutes
                )
            if search is None:
                outcome.failed_tuples.append(tid)
                continue
            current = dirty.row(tid).as_dict()
            best = search.winner(current, bias)
            assignment = dict(search.assignment(best))
            outcome.fusions[tid] = TupleFusion(
                tid=tid,
                assignment=assignment,
                conflicted_attributes=set(search.conflicted),
                substitutions=search.attempts[best][2],
            )
            for attribute, value in assignment.items():
                if current.get(attribute) != value:
                    repaired.set_value(tid, attribute, value)
        return outcome

    # ------------------------------------------------------------------
    # fusion search
    # ------------------------------------------------------------------
    def _search(
        self,
        versions: list[tuple[Block, DataPiece]],
        coding: _Coding,
        substitutes: dict[tuple[str, int], Optional[_Fact]],
    ) -> Optional[_Search]:
        """Every surviving merge order of one version signature (Algorithm 2).

        Returns the attempts in order-search order plus the attributes any
        order found in conflict, or ``None`` when every merge order fails.
        """
        steps = [(block.name, coding.facts[piece]) for block, piece in versions]
        weights = [piece.weight for _, piece in versions]
        pools = coding.pools
        conflicted: set[str] = set()
        # the fields whose attributes are already in ``conflicted``
        recorded = 0
        # fused word → its position among the distinct words
        words: dict[int, int] = {}
        firsts: list[int] = []
        attempts: list[_Attempt] = []
        for order in self._merge_orders(steps, weights):
            word = mask = 0
            product = 1.0
            substitutions = 0
            chosen = []
            for name, fact in order:
                fact_word, fact_mask, factor, _ = fact
                clash = (word ^ fact_word) & mask & fact_mask
                if clash:
                    if clash & ~recorded:
                        for attribute, bits in coding.fields_in(clash & ~recorded):
                            conflicted.add(attribute)
                            recorded |= bits
                    # every γ of a block shares its fields, so the search
                    # reads only the fusion's word on them
                    key = (name, word & fact_mask)
                    if key in substitutes:
                        fact = substitutes[key]
                    else:
                        fact = substitutes[key] = FusionScoreResolver._substitute(
                            pools[name], word, mask
                        )
                    if fact is None:
                        break
                    fact_word, fact_mask, factor, _ = fact
                    substitutions += 1
                word |= fact_word
                mask |= fact_mask
                product *= factor
                chosen.append(fact)
            else:
                if word not in words:
                    words[word] = len(firsts)
                    firsts.append(len(attempts))
                attempts.append((words[word], product, substitutions, chosen))
        if not attempts:
            return None
        return _Search(attempts, firsts, frozenset(conflicted))

    def _merge_orders(self, steps: list, weights: list[float]) -> Iterable:
        """The fusion orders to try.

        All permutations up to ``fscr_exhaustive_limit`` versions; otherwise
        each version leads once, followed by the rest in decreasing weight
        order (a greedy approximation of the factorial search).  The stable
        weight sort is taken once: the rest of each order is that ranking
        without its leader.
        """
        if len(steps) <= self.config.fscr_exhaustive_limit:
            return itertools.permutations(steps)
        ranked = sorted(range(len(steps)), key=weights.__getitem__, reverse=True)
        ranked_steps = [steps[index] for index in ranked]
        orders: list = [None] * len(steps)
        for rank, index in enumerate(ranked):
            orders[index] = [
                steps[index], *ranked_steps[:rank], *ranked_steps[rank + 1 :]
            ]
        return orders

    @staticmethod
    def _substitute(pool: list[_Fact], word: int, mask: int) -> Optional[_Fact]:
        """The highest-weight γ of a block's pool that agrees with the fusion."""
        for fact in pool:
            if not (word ^ fact[0]) & mask & fact[1]:
                return fact
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
