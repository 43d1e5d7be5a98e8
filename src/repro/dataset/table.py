"""In-memory relational table with stable tuple identifiers.

This is the dirty relation ``T`` of the paper.  Cleaning algorithms address
individual cells as ``(tid, attribute)`` pairs, so :class:`Table` keeps a
stable integer tuple id per row that survives copying and value updates; the
ground-truth ledger, the error injector, and the repair-accuracy metrics all
key on those cell addresses.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import Callable, Optional

from repro.dataset.domain import Domain
from repro.dataset.schema import Schema


def cell_text(value: object) -> str:
    """A cell's stored text: ``None`` is the empty cell, as in a CSV file."""
    return "" if value is None else str(value)


@dataclass(frozen=True)
class Cell:
    """Address of a single attribute value: tuple id + attribute name."""

    tid: int
    attribute: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"t{self.tid}.[{self.attribute}]"


class Row:
    """One tuple of the relation.

    A :class:`Row` behaves like a read-mostly mapping from attribute name to
    string value.  Mutation goes through :meth:`set` so the owning table can
    keep derived state (domains) consistent when required.
    """

    __slots__ = ("tid", "_values")

    def __init__(self, tid: int, values: Mapping[str, str]):
        self.tid = tid
        self._values = dict(values)

    def __getitem__(self, attribute: str) -> str:
        return self._values[attribute]

    def get(self, attribute: str, default: Optional[str] = None) -> Optional[str]:
        return self._values.get(attribute, default)

    def set(self, attribute: str, value: str) -> None:
        if attribute not in self._values:
            raise KeyError(f"attribute {attribute!r} not in row schema")
        self._values[attribute] = value

    def as_dict(self) -> dict[str, str]:
        """A copy of the row's values keyed by attribute."""
        return dict(self._values)

    def values_for(self, attributes: Sequence[str]) -> tuple[str, ...]:
        """Values of the given attributes, in the given order."""
        return tuple(self._values[a] for a in attributes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._values.items())))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Row(tid={self.tid}, {self._values!r})"


class Table:
    """A relation: a schema plus an ordered collection of rows.

    Rows keep stable tuple ids.  ``Table`` is the unit that MLNClean receives
    (a dirty table), produces (a clean table), and that the metrics compare
    against the ground truth.
    """

    def __init__(self, schema: Schema, name: str = "T"):
        self.schema = schema
        self.name = name
        self._rows: dict[int, Row] = {}
        self._next_tid = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def append(self, values: Mapping[str, str], tid: Optional[int] = None) -> Row:
        """Append a tuple; returns the created :class:`Row`.

        If ``tid`` is given it must be unused; otherwise the next free id is
        assigned.  Missing attributes are rejected so every row always covers
        the full schema.
        """
        missing = [a for a in self.schema if a not in values]
        if missing:
            raise KeyError(f"row is missing attributes {missing!r}")
        extra = [a for a in values if a not in self.schema]
        if extra:
            raise KeyError(f"row has attributes outside the schema: {extra!r}")
        if tid is None:
            tid = self._next_tid
        elif tid in self._rows:
            raise ValueError(f"tuple id {tid} already present")
        row = Row(tid, {a: cell_text(values[a]) for a in self.schema})
        self._rows[tid] = row
        self._next_tid = max(self._next_tid, tid + 1)
        return row

    def extend(self, records: Iterable[Mapping[str, str]]) -> None:
        """Append many records."""
        for record in records:
            self.append(record)

    @classmethod
    def from_records(
        cls,
        records: Sequence[Mapping[str, str]],
        attributes: Optional[Sequence[str]] = None,
        name: str = "T",
    ) -> "Table":
        """Build a table from a list of dicts.

        When ``attributes`` is omitted the schema is taken from the first
        record's keys (in insertion order).
        """
        if attributes is None:
            if not records:
                raise ValueError("cannot infer a schema from an empty record list")
            attributes = list(records[0].keys())
        table = cls(Schema(attributes), name=name)
        table.extend(records)
        return table

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def tids(self) -> list[int]:
        """Tuple ids in insertion order."""
        return list(self._rows.keys())

    @property
    def next_tid(self) -> int:
        """The id :meth:`append` would auto-assign to the next tuple.

        Monotone over the table's lifetime (removals do not release ids), so
        callers can pre-validate batched inserts against it.
        """
        return self._next_tid

    @property
    def rows(self) -> list[Row]:
        """Rows in insertion order."""
        return list(self._rows.values())

    @property
    def attributes(self) -> list[str]:
        """Attribute names of the schema."""
        return self.schema.attributes

    def row(self, tid: int) -> Row:
        """The row with tuple id ``tid``; raises ``KeyError`` if absent."""
        return self._rows[tid]

    def has_tid(self, tid: int) -> bool:
        return tid in self._rows

    def value(self, tid: int, attribute: str) -> str:
        """Value of one cell."""
        return self._rows[tid][attribute]

    def cell_value(self, cell: Cell) -> str:
        """Value at a :class:`Cell` address."""
        return self.value(cell.tid, cell.attribute)

    def set_value(self, tid: int, attribute: str, value: str) -> None:
        """Overwrite one cell."""
        if attribute not in self.schema:
            raise KeyError(f"attribute {attribute!r} not in schema")
        self._rows[tid].set(attribute, cell_text(value))

    def set_cell(self, cell: Cell, value: str) -> None:
        self.set_value(cell.tid, cell.attribute, value)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows.values())

    def __contains__(self, tid: object) -> bool:
        return tid in self._rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, {len(self)} rows, {self.schema.arity} attrs)"

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def cell_count(self) -> int:
        """Total number of attribute values (|T| x arity)."""
        return len(self._rows) * self.schema.arity

    def cells(self) -> Iterator[Cell]:
        """Iterate over every cell address."""
        for tid in self._rows:
            for attribute in self.schema:
                yield Cell(tid, attribute)

    def column(self, attribute: str) -> list[str]:
        """All values of one attribute, in row order."""
        if attribute not in self.schema:
            raise KeyError(f"attribute {attribute!r} not in schema")
        return [row[attribute] for row in self._rows.values()]

    def domain(self, attribute: str) -> Domain:
        """The observed domain of one attribute."""
        domain = Domain(attribute)
        for value in self.column(attribute):
            domain.add(value)
        return domain

    def domains(self) -> dict[str, Domain]:
        """Observed domains of every attribute."""
        return {attribute: self.domain(attribute) for attribute in self.schema}

    def records(self) -> list[dict[str, str]]:
        """All rows as plain dicts (copies)."""
        return [row.as_dict() for row in self._rows.values()]

    def projection(self, attributes: Sequence[str]) -> list[tuple[str, ...]]:
        """Project every row onto the given attributes."""
        self.schema.validate_attributes(attributes)
        return [row.values_for(attributes) for row in self._rows.values()]

    # ------------------------------------------------------------------
    # copying / mutation helpers
    # ------------------------------------------------------------------
    def _from_rows(self, rows: Iterable[Row], name: str) -> "Table":
        """A table of copies of this table's own rows (ids kept).

        The rows were validated when they entered this table, so they are
        copied straight in rather than re-checked through :meth:`append`;
        ``next_tid`` is the largest copied id plus one, as appends would set
        it.  A repeated id raises ``ValueError``, as :meth:`append` does.
        """
        result = Table(self.schema, name=name)
        copied = result._rows
        for row in rows:
            if row.tid in copied:
                raise ValueError(f"tuple id {row.tid} already present")
            copied[row.tid] = Row(row.tid, row._values)
        if copied:
            result._next_tid = max(copied) + 1
        return result

    def copy(self, name: Optional[str] = None) -> "Table":
        """A deep copy preserving tuple ids."""
        return self._from_rows(self._rows.values(), name or self.name)

    def remove(self, tid: int) -> None:
        """Remove the tuple with id ``tid``."""
        del self._rows[tid]

    def remove_many(self, tids: Iterable[int]) -> None:
        for tid in list(tids):
            self.remove(tid)

    def filter(self, predicate: Callable[[Row], bool], name: str = "filtered") -> "Table":
        """A new table containing the rows satisfying ``predicate`` (ids kept)."""
        return self._from_rows(
            (row for row in self._rows.values() if predicate(row)), name
        )

    def subset(self, tids: Sequence[int], name: str = "subset") -> "Table":
        """A new table containing exactly the given tuple ids (ids kept).

        Raises ``KeyError`` on an unknown id and ``ValueError`` on a repeated one.
        """
        return self._from_rows((self._rows[tid] for tid in tids), name)

    def __deepcopy__(self, memo: dict) -> "Table":  # pragma: no cover - delegation
        cloned = self.copy()
        memo[id(self)] = cloned
        return cloned

    def equals(self, other: "Table") -> bool:
        """True if both tables have identical schemas, tids and values."""
        if self.schema != other.schema or set(self.tids) != set(other.tids):
            return False
        return all(
            self._rows[tid].as_dict() == other._rows[tid].as_dict()
            for tid in self._rows
        )

    def diff_cells(self, other: "Table") -> list[Cell]:
        """Cells whose values differ between two tables with the same tids."""
        if set(self.tids) != set(other.tids):
            raise ValueError("tables have different tuple ids")
        changed: list[Cell] = []
        for tid in self._rows:
            for attribute in self.schema:
                if self.value(tid, attribute) != other.value(tid, attribute):
                    changed.append(Cell(tid, attribute))
        return changed

    def duplicate_groups(self) -> list[list[int]]:
        """Groups of tuple ids whose rows are exact value duplicates.

        Only groups with at least two members are returned; MLNClean removes
        the extra members at the very end of the pipeline.
        """
        by_values: dict[tuple[str, ...], list[int]] = {}
        attributes = self.schema.attributes
        for tid, row in self._rows.items():
            by_values.setdefault(row.values_for(attributes), []).append(tid)
        return [tids for tids in by_values.values() if len(tids) > 1]

    def to_pretty_string(self, max_rows: int = 20) -> str:
        """A fixed-width rendering, handy for examples and debugging."""
        attrs = self.schema.attributes
        header = ["TID", *attrs]
        rows = [[str(tid), *(self._rows[tid][a] for a in attrs)] for tid in self.tids]
        shown = rows[:max_rows]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in shown)) if shown else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            "  ".join(header[i].ljust(widths[i]) for i in range(len(header))),
            "  ".join("-" * widths[i] for i in range(len(header))),
        ]
        lines.extend(
            "  ".join(r[i].ljust(widths[i]) for i in range(len(header))) for r in shown
        )
        if len(rows) > max_rows:
            lines.append(f"... ({len(rows) - max_rows} more rows)")
        return "\n".join(lines)
