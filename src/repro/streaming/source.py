"""Stream sources: reproducible tuple streams for the streaming engine.

A source turns a table (or a whole synthetic workload, errors included) into
a sequence of :class:`~repro.streaming.delta.DeltaBatch` micro-batches.  Two
properties make them experiment-grade:

* **reproducible** — batches replay in ascending tuple-id order with the
  original tids preserved, so a streamed run is directly comparable to a
  batch run over the same table (the equivalence tests rely on this), and
* **ground-truth aware** — when the underlying table came from the error
  injector, each batch carries the slice of the injected-error ledger that
  belongs to its tuples, so the engine can track cumulative accuracy as the
  stream progresses.

:class:`WorkloadStreamSource` adapts the registered workload generators
(HAI / CAR / TPC-H / hospital-sample, plus anything added through
:func:`repro.workloads.register_workload`) into such streams.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import Optional

from repro.constraints.rules import Rule
from repro.dataset.table import Table
from repro.errors.groundtruth import GroundTruth
from repro.errors.injector import ErrorSpec
from repro.streaming.delta import DeltaBatch
from repro.workloads.base import Workload, WorkloadInstance
from repro.workloads.registry import get_workload_generator


@dataclass
class StreamBatch:
    """One emitted micro-batch: the deltas plus their ground-truth slice."""

    sequence: int
    deltas: DeltaBatch
    ground_truth: Optional[GroundTruth] = None

    def __len__(self) -> int:
        return len(self.deltas)


class TableStreamSource:
    """Replays an existing table as insert batches, original tids preserved."""

    def __init__(
        self,
        table: Table,
        batch_size: int,
        ground_truth: Optional[GroundTruth] = None,
    ):
        if batch_size < 1:
            raise ValueError("a stream source needs batch_size >= 1")
        self.table = table
        self.batch_size = batch_size
        self.ground_truth = ground_truth

    def __iter__(self) -> Iterator[StreamBatch]:
        tids = sorted(self.table.tids)
        for sequence, start in enumerate(range(0, len(tids), self.batch_size)):
            chunk = tids[start : start + self.batch_size]
            deltas = DeltaBatch.from_table(self.table, tids=chunk)
            yield StreamBatch(
                sequence=sequence,
                deltas=deltas,
                ground_truth=self._slice_ground_truth(chunk),
            )

    def __len__(self) -> int:
        """Number of batches the source will emit."""
        return -(-len(self.table.tids) // self.batch_size)

    def _slice_ground_truth(self, tids: list[int]) -> Optional[GroundTruth]:
        if self.ground_truth is None:
            return None
        members = set(tids)
        return GroundTruth(
            error for error in self.ground_truth if error.cell.tid in members
        )


class WorkloadStreamSource:
    """A registered workload (with injected errors) as a reproducible stream.

    Builds the clean table through the workload registry, corrupts it with
    the usual error injector, and replays the dirty table in micro-batches::

        source = WorkloadStreamSource("hai", tuples=600, batch_size=100)
        engine = StreamingMLNClean(source.rules, source.schema)
        engine.consume(source)
    """

    def __init__(
        self,
        dataset: str,
        tuples: Optional[int] = None,
        batch_size: int = 100,
        error_spec: Optional[ErrorSpec] = None,
        seed: int = 7,
    ):
        self.dataset = dataset
        generator = (
            get_workload_generator(dataset, tuples=tuples, seed=seed)
            if tuples is not None
            else get_workload_generator(dataset, seed=seed)
        )
        self.workload: Workload = generator.build()
        self.instance: WorkloadInstance = self.workload.make_instance(error_spec)
        self._table_source = TableStreamSource(
            self.instance.dirty, batch_size, self.instance.ground_truth
        )

    @property
    def rules(self) -> list[Rule]:
        return self.instance.rules

    @property
    def schema(self) -> list[str]:
        return self.instance.dirty.attributes

    @property
    def dirty(self) -> Table:
        """The full dirty table the stream replays (for batch comparisons)."""
        return self.instance.dirty

    @property
    def ground_truth(self) -> GroundTruth:
        return self.instance.ground_truth

    @property
    def batch_size(self) -> int:
        return self._table_source.batch_size

    def __iter__(self) -> Iterator[StreamBatch]:
        return iter(self._table_source)

    def __len__(self) -> int:
        return len(self._table_source)


__all__ = [
    "StreamBatch",
    "TableStreamSource",
    "WorkloadStreamSource",
]
