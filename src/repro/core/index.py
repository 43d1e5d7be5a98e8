"""The two-layer MLN index (Section 4 and Figure 2 of the paper).

The first layer is a set of **blocks**, one per MLN rule; the second layer
splits each block into **groups** of *pieces of data* (γ) that share the same
values on the rule's reason part.  A γ carries the attribute values of one
tuple restricted to the rule's attributes, so a tuple contributes at most one
γ per block and the block collection holds up to ``|B|`` *data versions* of
every tuple.  The index is also the MLN's grounding (Table 3): each γ is a
ground rule with its support ``c(γ)`` and tuple ids, weighed by
:mod:`repro.mln` in the RSC stage.

Index construction is lines 1-13 of Algorithm 1 and costs
``O(|B| × |T|)``.  Blocks hold only their groups and γs: the distance
searches of Stage I bound candidates from the distance engine's own cached
value profiles (:mod:`repro.perf.qgram`), so the index keeps no auxiliary
search structure to maintain under deltas.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Optional

from repro.constraints.rules import Rule
from repro.dataset.table import Table


class DataPiece:
    """A piece of data γ: the reason/result values of some tuples w.r.t. a rule.

    All tuples whose values coincide on the rule's attributes share one γ;
    ``support`` is the number of such tuples (the ``c(γ)`` of Eq. 4) and
    ``weight`` is the Markov weight learned for the γ's ground clause.
    """

    __slots__ = ("rule", "reason_values", "result_values", "values", "tids", "weight")

    def __init__(
        self,
        rule: Rule,
        reason_values: tuple[str, ...],
        result_values: tuple[str, ...],
        tids: Optional[Iterable[int]] = None,
    ):
        self.rule = rule
        self.reason_values = reason_values
        self.result_values = result_values
        #: reason values followed by result values — precomputed because the
        #: AGP / RSC distance loops read it once per pair, and the value
        #: parts never change after construction (repairs replace γs rather
        #: than mutating them)
        self.values: tuple[str, ...] = reason_values + result_values
        self.tids: list[int] = list(tids) if tids is not None else []
        self.weight: float = 0.0

    @property
    def key(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Identity of the γ inside its block: (reason values, result values)."""
        return (self.reason_values, self.result_values)

    @property
    def support(self) -> int:
        """Number of tuples related to this γ (``c(γ)``)."""
        return len(self.tids)

    def as_assignment(self) -> dict[str, str]:
        """The γ as an attribute → value mapping over the rule's attributes."""
        attributes = self.rule.reason_attributes + self.rule.result_attributes
        return dict(zip(attributes, self.values))

    def add_tuple(self, tid: int) -> None:
        self.tids.append(tid)

    def remove_tuple(self, tid: int) -> bool:
        """Detach one tuple from the γ; returns whether it was present.

        Only the first occurrence is removed — a tuple legitimately appears
        once per γ, so this keeps the support count ``c(γ)`` consistent under
        incremental deletions.
        """
        try:
            self.tids.remove(tid)
        except ValueError:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DataPiece({self.rule.name}, {self.as_assignment()!r}, "
            f"support={self.support}, weight={self.weight:.3f})"
        )


class Group:
    """A second-layer bucket: all γs sharing the same reason-part values."""

    __slots__ = ("key", "pieces")

    def __init__(self, key: tuple[str, ...]):
        self.key = key
        #: γs keyed by their (reason, result) identity
        self.pieces: dict[tuple[tuple[str, ...], tuple[str, ...]], DataPiece] = {}

    def add_piece(self, piece: DataPiece) -> None:
        """Insert a γ, merging tuple lists if an identical γ already exists."""
        existing = self.pieces.get(piece.key)
        if existing is None:
            self.pieces[piece.key] = piece
        else:
            existing.tids.extend(piece.tids)

    def remove_piece(
        self, key: tuple[tuple[str, ...], tuple[str, ...]]
    ) -> DataPiece:
        """Detach and return one γ by its (reason, result) identity."""
        return self.pieces.pop(key)

    def remove_tuple(
        self, tid: int, key: tuple[tuple[str, ...], tuple[str, ...]]
    ) -> Optional[DataPiece]:
        """Detach a tuple from the γ identified by ``key``.

        Returns the γ the tuple was detached from (``None`` when no such γ
        holds the tuple); γs whose last tuple was removed are dropped from
        the group, so a returned γ may have support zero.
        """
        piece = self.pieces.get(key)
        if piece is None or not piece.remove_tuple(tid):
            return None
        if piece.support == 0:
            self.remove_piece(key)
        return piece

    @property
    def gammas(self) -> list[DataPiece]:
        return list(self.pieces.values())

    @property
    def size(self) -> int:
        """Number of distinct γs in the group."""
        return len(self.pieces)

    @property
    def tuple_count(self) -> int:
        """Total number of tuples related to the group's γs."""
        return sum(piece.support for piece in self.pieces.values())

    @property
    def tids(self) -> list[int]:
        """All tuple ids covered by the group."""
        collected: list[int] = []
        for piece in self.pieces.values():
            collected.extend(piece.tids)
        return collected

    def representative(self) -> DataPiece:
        """γ*: the piece related to the most tuples (ties broken by values).

        AGP measures group-to-group distance between representatives.
        """
        if not self.pieces:
            raise ValueError("cannot pick a representative of an empty group")
        return max(self.pieces.values(), key=lambda p: (p.support, p.values))

    def is_resolved(self) -> bool:
        """True when the group has reached the ideal single-γ state."""
        return len(self.pieces) <= 1

    def __iter__(self) -> Iterator[DataPiece]:
        return iter(self.pieces.values())

    def __len__(self) -> int:
        return len(self.pieces)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Group(key={self.key!r}, gammas={self.size}, tuples={self.tuple_count})"


class Block:
    """A first-layer bucket: every γ derived from one rule."""

    def __init__(self, rule: Rule):
        self.rule = rule
        #: groups keyed by reason-part values
        self.groups: dict[tuple[str, ...], Group] = {}

    @property
    def name(self) -> str:
        return self.rule.name

    @property
    def attributes(self) -> list[str]:
        """The rule's attributes (reason first, then result)."""
        return self.rule.reason_attributes + self.rule.result_attributes

    def gamma_key(
        self, values: Mapping[str, str]
    ) -> Optional[tuple[tuple[str, ...], tuple[str, ...]]]:
        """The (reason, result) identity a tuple with ``values`` maps to.

        ``None`` when the rule does not cover the tuple (e.g. a CFD whose
        condition values do not match).
        """
        if not self.rule.covers(values):
            return None
        return (
            tuple(values[a] for a in self.rule.reason_attributes),
            tuple(values[a] for a in self.rule.result_attributes),
        )

    def add_tuple(self, tid: int, values: dict[str, str]) -> Optional[DataPiece]:
        """Insert one tuple's γ; returns it, or ``None`` if the rule skips it."""
        if not self.rule.covers(values):
            return None
        reason_values = tuple(values[a] for a in self.rule.reason_attributes)
        result_values = tuple(values[a] for a in self.rule.result_attributes)
        group = self.groups.get(reason_values)
        if group is None:
            group = Group(reason_values)
            self.groups[reason_values] = group
        piece = group.pieces.get((reason_values, result_values))
        if piece is None:
            piece = DataPiece(self.rule, reason_values, result_values)
            group.pieces[piece.key] = piece
        piece.add_tuple(tid)
        return piece

    @property
    def group_list(self) -> list[Group]:
        return list(self.groups.values())

    @property
    def pieces(self) -> list[DataPiece]:
        """Every γ of the block across all groups."""
        collected: list[DataPiece] = []
        for group in self.groups.values():
            collected.extend(group.pieces.values())
        return collected

    def remove_group(self, key: tuple[str, ...]) -> Group:
        """Detach and return a group (AGP does this when merging)."""
        return self.groups.pop(key)

    def remove_tuple(self, tid: int, values: Mapping[str, str]) -> Optional[DataPiece]:
        """Detach a tuple whose current values are ``values`` from its γ.

        The γ is located directly through the values (no scan); empty γs and
        groups are dropped so support counts stay exact under deletions.
        Returns the γ the tuple was detached from (``None`` if the rule does
        not cover the tuple or the γ does not hold it).
        """
        key = self.gamma_key(values)
        if key is None:
            return None
        group = self.groups.get(key[0])
        if group is None:
            return None
        piece = group.remove_tuple(tid, key)
        if piece is not None and not group.pieces:
            del self.groups[key[0]]
        return piece

    def update_tuple(
        self,
        tid: int,
        old_values: Mapping[str, str],
        new_values: dict[str, str],
    ) -> tuple[Optional[DataPiece], Optional[DataPiece]]:
        """Re-home a tuple whose values changed from ``old_values``.

        Removes the tuple from the γ its old values map to and inserts it
        into the γ of its new values (creating groups/γs as needed); returns
        ``(old_piece, new_piece)``.  A no-op on both sides when the value
        change does not touch the rule's γ identity.
        """
        old_key = self.gamma_key(old_values)
        new_key = self.gamma_key(new_values)
        if old_key == new_key:
            return (None, None)
        old_piece = self.remove_tuple(tid, old_values)
        new_piece = self.add_tuple(tid, new_values)
        return (old_piece, new_piece)

    def group_of_tid(self, tid: int) -> Optional[Group]:
        """The group currently holding a tuple (``None`` if not covered)."""
        for group in self.groups.values():
            for piece in group.pieces.values():
                if tid in piece.tids:
                    return group
        return None

    def piece_of_tid(self, tid: int) -> Optional[DataPiece]:
        """The γ currently holding a tuple (``None`` if not covered)."""
        for group in self.groups.values():
            for piece in group.pieces.values():
                if tid in piece.tids:
                    return piece
        return None

    def __len__(self) -> int:
        return len(self.groups)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Block({self.name!r}, groups={len(self.groups)})"


def check_rule_attributes(rules: Iterable[Rule], attributes: Iterable[str]) -> None:
    """Raise ``ValueError`` if a rule names an attribute outside ``attributes``.

    Checked once per index build (or stream), before any tuple is indexed,
    so an empty table rejects such a rule just like a populated one.
    """
    known = set(attributes)
    for rule in rules:
        missing = [a for a in rule.attributes if a not in known]
        if missing:
            raise ValueError(
                f"rule {rule.name!r} ({rule}) names attributes missing from "
                f"the table: {', '.join(missing)}"
            )


class MLNIndex:
    """The two-layer index over a dirty table for a rule set."""

    def __init__(self, blocks: dict[str, Block]):
        self.blocks = blocks

    @classmethod
    def build(cls, table: Table, rules: Sequence[Rule]) -> "MLNIndex":
        """Construct the index (lines 1-13 of Algorithm 1)."""
        check_rule_attributes(rules, table.attributes)
        blocks: dict[str, Block] = {}
        for rule in rules:
            blocks[rule.name] = Block(rule)
        for row in table:
            values = row.as_dict()
            for block in blocks.values():
                block.add_tuple(row.tid, values)
        return cls(blocks)

    @property
    def block_list(self) -> list[Block]:
        return list(self.blocks.values())

    def block(self, rule_name: str) -> Block:
        return self.blocks[rule_name]

    def enable_qgram(self, q: int = 1) -> None:
        """Deprecated no-op: blocks keep no q-gram index since 3.0.

        Batch distance queries bound their candidates from the engine's
        cached unigram profiles, so there is nothing to build.  The method
        remains only because the perf benchmark's layer tracer
        (``benchmarks/perf/layers.py``) hooks it by name; it goes with that
        hook at the benchmark's next change.
        """
        warnings.warn(
            "MLNIndex.enable_qgram is a no-op since 3.0 (blocks keep no q-gram index)",
            DeprecationWarning,
            stacklevel=2,
        )

    # ------------------------------------------------------------------
    # incremental maintenance hooks (used by repro.streaming)
    # ------------------------------------------------------------------
    def add_tuple(self, tid: int, values: dict[str, str]) -> dict[str, DataPiece]:
        """Insert one tuple into every covering block; γs created per block."""
        touched: dict[str, DataPiece] = {}
        for name, block in self.blocks.items():
            piece = block.add_tuple(tid, values)
            if piece is not None:
                touched[name] = piece
        return touched

    def remove_tuple(self, tid: int, values: Mapping[str, str]) -> dict[str, DataPiece]:
        """Detach one tuple (with its current values) from every block."""
        touched: dict[str, DataPiece] = {}
        for name, block in self.blocks.items():
            piece = block.remove_tuple(tid, values)
            if piece is not None:
                touched[name] = piece
        return touched

    def update_tuple(
        self,
        tid: int,
        old_values: Mapping[str, str],
        new_values: dict[str, str],
    ) -> dict[str, tuple[Optional[DataPiece], Optional[DataPiece]]]:
        """Re-home one tuple in every block where its γ identity changed."""
        touched: dict[str, tuple[Optional[DataPiece], Optional[DataPiece]]] = {}
        for name, block in self.blocks.items():
            old_piece, new_piece = block.update_tuple(tid, old_values, new_values)
            if old_piece is not None or new_piece is not None:
                touched[name] = (old_piece, new_piece)
        return touched

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        groups = sum(len(block) for block in self.blocks.values())
        return f"MLNIndex(blocks={len(self.blocks)}, groups={groups})"

    def statistics(self) -> dict[str, dict[str, int]]:
        """Per-block group / γ / tuple counts (useful in reports and tests)."""
        stats: dict[str, dict[str, int]] = {}
        for name, block in self.blocks.items():
            stats[name] = {
                "groups": len(block.groups),
                "gammas": len(block.pieces),
                "tuples": sum(group.tuple_count for group in block.groups.values()),
            }
        return stats
