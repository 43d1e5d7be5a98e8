"""Tuple deltas: the unit of change of the streaming MLNClean engine.

A batch pipeline sees one immutable dirty table; a streaming pipeline sees a
*sequence of deltas* against an evolving table.  Three kinds of change cover
every stream the engine supports:

* :class:`Insert` — a new tuple arrives (the common case for append-only
  sources such as logs or sensor feeds),
* :class:`Update` — some attribute values of an existing tuple change (late
  corrections, upstream re-deliveries),
* :class:`Delete` — a tuple leaves the relation (retention policies; the
  window policies of :mod:`repro.streaming.window` emit these).

A :class:`DeltaBatch` groups consecutive deltas into the micro-batch the
engine cleans in one step.  Batches are plain data: they carry no reference
to the engine's state, so they can be produced by any source, serialised, or
replayed.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.dataset.table import Table, cell_text


@dataclass(frozen=True)
class Insert:
    """A new tuple with its full attribute assignment.

    ``tid`` may be left ``None`` to let the engine's table assign the next
    free tuple id; sources that replay an existing table pass the original
    tids through so downstream joins (and ground-truth ledgers) stay valid.
    """

    values: Mapping[str, str]
    tid: Optional[int] = None


@dataclass(frozen=True)
class Update:
    """A partial re-assignment of an existing tuple's attribute values."""

    tid: int
    changes: Mapping[str, str]


@dataclass(frozen=True)
class Delete:
    """Removal of an existing tuple."""

    tid: int


Delta = Union[Insert, Update, Delete]


@dataclass
class DeltaBatch:
    """One micro-batch of deltas, applied and cleaned as a unit."""

    deltas: list[Delta] = field(default_factory=list)

    def add(self, delta: Delta) -> None:
        self.deltas.append(delta)

    @property
    def inserts(self) -> list[Insert]:
        return [d for d in self.deltas if isinstance(d, Insert)]

    @property
    def updates(self) -> list[Update]:
        return [d for d in self.deltas if isinstance(d, Update)]

    @property
    def deletes(self) -> list[Delete]:
        return [d for d in self.deltas if isinstance(d, Delete)]

    def counts(self) -> dict[str, int]:
        """Number of deltas per kind (for reports)."""
        return {
            "inserts": len(self.inserts),
            "updates": len(self.updates),
            "deletes": len(self.deletes),
        }

    def __len__(self) -> int:
        return len(self.deltas)

    def __iter__(self) -> Iterator[Delta]:
        return iter(self.deltas)

    def __bool__(self) -> bool:
        return bool(self.deltas)

    @classmethod
    def from_records(
        cls, records: Iterable[Mapping[str, str]], start_tid: Optional[int] = None
    ) -> "DeltaBatch":
        """A batch of inserts from plain records.

        ``start_tid`` assigns consecutive explicit tids from that offset;
        otherwise the engine assigns tids on arrival.
        """
        batch = cls()
        for offset, record in enumerate(records):
            tid = None if start_tid is None else start_tid + offset
            batch.add(Insert(values=dict(record), tid=tid))
        return batch

    @classmethod
    def from_table(cls, table: Table, tids: Optional[Iterable[int]] = None) -> "DeltaBatch":
        """A batch of inserts replaying (part of) an existing table.

        Original tuple ids are preserved so a replayed stream is directly
        comparable to a batch run over the same table.
        """
        batch = cls()
        selected = list(tids) if tids is not None else table.tids
        for tid in selected:
            batch.add(Insert(values=table.row(tid).as_dict(), tid=tid))
        return batch

    def to_json_list(self) -> list:
        """All deltas as JSON-safe dictionaries (see :func:`delta_to_json_dict`)."""
        return [delta_to_json_dict(delta) for delta in self.deltas]

    @classmethod
    def from_json_list(cls, data: Iterable[Mapping]) -> "DeltaBatch":
        """Rebuild a batch from decoded JSON deltas (the service's wire form)."""
        return cls([delta_from_json_dict(item) for item in data])


# ----------------------------------------------------------------------
# JSON codec: how deltas travel over the wire
# ----------------------------------------------------------------------
def delta_to_json_dict(delta: Delta) -> dict:
    """One delta as a JSON-safe dictionary, tagged by an ``op`` field."""
    if isinstance(delta, Insert):
        encoded: dict = {"op": "insert", "values": dict(delta.values)}
        if delta.tid is not None:
            encoded["tid"] = delta.tid
        return encoded
    if isinstance(delta, Update):
        return {"op": "update", "tid": delta.tid, "changes": dict(delta.changes)}
    if isinstance(delta, Delete):
        return {"op": "delete", "tid": delta.tid}
    raise TypeError(f"unsupported delta {delta!r}")


def delta_from_json_dict(data: Mapping) -> Delta:
    """Decode one ``op``-tagged dictionary back into a delta.

    This is the ingestion path of ``POST /deltas``: every value is coerced
    to ``str`` (the table model is string-typed) and malformed shapes raise
    ``ValueError`` with the offending field, so the HTTP layer can answer
    400 instead of crashing a shard worker.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"a delta must be a JSON object, got {type(data).__name__}")

    def coerce_tid(raw: object) -> int:
        try:
            return int(raw)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise ValueError(f"a delta 'tid' must be an integer, got {raw!r}") from None

    op = data.get("op")
    if op == "insert":
        values = data.get("values")
        if not isinstance(values, Mapping):
            raise ValueError("an insert delta needs a 'values' object")
        tid = data.get("tid")
        return Insert(
            values={str(k): cell_text(v) for k, v in values.items()},
            tid=coerce_tid(tid) if tid is not None else None,
        )
    if op == "update":
        if "tid" not in data:
            raise ValueError("an update delta needs a 'tid'")
        changes = data.get("changes")
        if not isinstance(changes, Mapping):
            raise ValueError("an update delta needs a 'changes' object")
        return Update(
            tid=coerce_tid(data["tid"]),
            changes={str(k): cell_text(v) for k, v in changes.items()},
        )
    if op == "delete":
        if "tid" not in data:
            raise ValueError("a delete delta needs a 'tid'")
        return Delete(tid=coerce_tid(data["tid"]))
    raise ValueError(
        f"unknown delta op {op!r}; expected 'insert', 'update' or 'delete'"
    )
