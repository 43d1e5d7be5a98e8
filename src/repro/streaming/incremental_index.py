"""Incremental maintenance of the two-layer MLN index.

Batch MLNClean rebuilds the index from scratch — lines 1-13 of Algorithm 1,
``O(|B| × |T|)`` — before every run.  Under a stream of tuple deltas that
cost is paid per micro-batch, which dwarfs the size of the change.  This
module keeps one *raw* (pre-cleaning) index alive across batches and applies
each delta directly:

* an :class:`~repro.streaming.delta.Insert` adds the tuple's γ to every
  covering block (creating groups/γs on demand),
* a :class:`~repro.streaming.delta.Delete` detaches the tuple from its γ in
  every block, dropping γs and groups that become empty,
* an :class:`~repro.streaming.delta.Update` re-homes the γ only in blocks
  whose rule mentions a changed attribute (identity-preserving updates are
  free).

Support counts ``c(γ)`` stay exact because γ membership is maintained per
tuple.  The index also records which groups each operation dirtied, so the
streaming cleaner can re-run Stage I only where something changed.

Cleaning is destructive (AGP merges groups, RSC rewrites γs), so the raw
index is never cleaned in place.  Instead :meth:`IncrementalMLNIndex.canonical_block`
emits a fresh clone of one block with groups, γs and tuple lists in
*canonical order* — ascending first-occurrence (minimum tid) order.  For a
table whose tuple ids ascend in insertion order this is exactly the block
:meth:`repro.core.index.MLNIndex.build` would construct, so Stage I over the
clone reproduces the batch pipeline's result bit for bit regardless of the
delta history that produced the index.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence

from repro.constraints.rules import Rule
from repro.core.index import Block, DataPiece, Group, MLNIndex
from repro.dataset.table import Table

#: which groups of which blocks an operation touched: block name → reason keys
DirtiedGroups = dict[str, set[tuple[str, ...]]]


def merge_dirtied(target: DirtiedGroups, extra: DirtiedGroups) -> None:
    """Fold one dirtied-group map into another (in place)."""
    for name, keys in extra.items():
        target.setdefault(name, set()).update(keys)


class IncrementalMLNIndex:
    """A two-layer MLN index maintained under tuple deltas."""

    def __init__(self, rules: Sequence[Rule]):
        if not rules:
            raise ValueError("an MLN index needs at least one rule")
        self._index = MLNIndex({rule.name: Block(rule) for rule in rules})

    @classmethod
    def from_table(cls, table: Table, rules: Sequence[Rule]) -> "IncrementalMLNIndex":
        """Bootstrap the index from an existing table (one add per tuple)."""
        index = cls(rules)
        for row in table:
            index.add_tuple(row.tid, row.as_dict())
        return index

    # ------------------------------------------------------------------
    # delta operations
    # ------------------------------------------------------------------
    def add_tuple(self, tid: int, values: dict[str, str]) -> DirtiedGroups:
        """Insert one tuple; returns the groups that gained a tuple."""
        return {
            name: {piece.reason_values}
            for name, piece in self._index.add_tuple(tid, values).items()
        }

    def remove_tuple(self, tid: int, values: Mapping[str, str]) -> DirtiedGroups:
        """Detach one tuple (with its current values); returns shrunk groups."""
        return {
            name: {piece.reason_values}
            for name, piece in self._index.remove_tuple(tid, values).items()
        }

    def update_tuple(
        self,
        tid: int,
        old_values: Mapping[str, str],
        new_values: dict[str, str],
    ) -> DirtiedGroups:
        """Re-home one tuple; returns both the vacated and the entered groups.

        Blocks whose γ identity is unchanged by the update are untouched and
        do not appear in the result.
        """
        dirtied: DirtiedGroups = {}
        touched = self._index.update_tuple(tid, old_values, new_values)
        for name, (old_piece, new_piece) in touched.items():
            keys = dirtied.setdefault(name, set())
            if old_piece is not None:
                keys.add(old_piece.reason_values)
            if new_piece is not None:
                keys.add(new_piece.reason_values)
        return dirtied

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def blocks(self) -> dict[str, Block]:
        return self._index.blocks

    @property
    def block_list(self) -> list[Block]:
        return self._index.block_list

    def block(self, rule_name: str) -> Block:
        return self._index.block(rule_name)

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._index)

    def statistics(self) -> dict[str, dict[str, int]]:
        return self._index.statistics()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Incremental{self._index!r}"

    # ------------------------------------------------------------------
    # canonical clones for (destructive) Stage-I cleaning
    # ------------------------------------------------------------------
    def canonical_block(self, rule_name: str) -> Block:
        """A fresh, mutation-safe clone of one block in canonical order.

        Groups are ordered by the minimum tuple id they hold, γs within a
        group likewise, and every γ's tuple list ascends — the order a full
        table scan in ascending tid order would have produced.  Weights are
        reset to zero, as in a freshly built index.
        """
        source = self._index.block(rule_name)
        clone = Block(source.rule)
        groups = sorted(source.groups.values(), key=_group_first_tid)
        for group in groups:
            new_group = Group(group.key)
            clone.groups[group.key] = new_group
            for piece in sorted(group.pieces.values(), key=_piece_first_tid):
                new_piece = DataPiece(
                    piece.rule,
                    piece.reason_values,
                    piece.result_values,
                    sorted(piece.tids),
                )
                new_group.pieces[new_piece.key] = new_piece
        return clone


def _piece_first_tid(piece: DataPiece) -> int:
    return min(piece.tids)


def _group_first_tid(group: Group) -> int:
    return min(min(piece.tids) for piece in group.pieces.values())
