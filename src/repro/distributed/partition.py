"""Algorithm 3: capacity-bounded, centroid-based data partitioning.

Data skew "may lead the overall process to delay" on a cluster, so the paper
partitions the dataset into ``k`` parts of (almost) equal size while keeping
similar tuples together: each part has a randomly chosen centroid tuple and a
maximum capacity ``s = ⌈|T|/k⌉``; every remaining tuple goes to the part with
the closest centroid, and when that part is full either the new tuple or the
part's farthest member (the top of the part's max-heap) is displaced to its
closest non-full part.

The per-part max-heaps keyed by distance-to-centroid give the
``O(|T| · lg s)`` insertion cost the paper quotes.  The distances themselves
are measured up front: per attribute, every distinct value against every
centroid's value in one batched run (for Levenshtein, the packed
multi-pattern kernel of :mod:`repro.distance.fastpath`: one pass per
centroid over all the values at once).
"""

from __future__ import annotations

import heapq
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

from repro.dataset.table import Table
from repro.distance.base import get_metric
from repro.perf.engine import DistanceEngine


@dataclass
class Partition:
    """One part: its centroid tuple id and its member tuple ids."""

    index: int
    centroid_tid: int
    member_tids: list[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.member_tids)


@dataclass
class PartitionResult:
    """The outcome of partitioning a table into ``k`` parts."""

    partitions: list[Partition]
    capacity: int

    def tables(self, table: Table) -> list[Table]:
        """Materialise each part as its own :class:`Table` (tids preserved)."""
        return [
            table.subset(partition.member_tids, name=f"{table.name}-part{partition.index}")
            for partition in self.partitions
        ]

    @property
    def sizes(self) -> list[int]:
        return [partition.size for partition in self.partitions]

    def assignment(self) -> dict[int, int]:
        """tid → partition index."""
        mapping: dict[int, int] = {}
        for partition in self.partitions:
            for tid in partition.member_tids:
                mapping[tid] = partition.index
        return mapping


class DataPartitioner:
    """Partitions a table into ``k`` capacity-bounded parts (Algorithm 3).

    Tuple-to-centroid distances go through a :class:`DistanceEngine`: the
    distributed driver passes the run's shared engine; without one the
    partitioner builds its own Levenshtein engine.  Before any tuple is
    placed, :meth:`DistanceEngine.distance_rows` measures each attribute's
    distinct values against the centroids in one call, and a tuple's
    distance to every centroid sums its values' rows left to right, which
    is :meth:`DistanceEngine.values_distance` bit for bit.
    """

    def __init__(
        self,
        parts: int,
        engine: Optional[DistanceEngine] = None,
        seed: int = 13,
        sample_attributes: Optional[Sequence[str]] = None,
    ):
        if parts < 1:
            raise ValueError("the number of parts must be >= 1")
        self.parts = parts
        self.engine = engine or DistanceEngine(get_metric("levenshtein"))
        self.seed = seed
        #: attributes used in the tuple distance (all attributes by default);
        #: restricting them speeds up partitioning of wide tables
        self.sample_attributes = list(sample_attributes) if sample_attributes else None

    def partition(self, table: Table) -> PartitionResult:
        """Split ``table`` into ``min(parts, |T|)`` parts."""
        tids = table.tids
        if not tids:
            return PartitionResult(partitions=[], capacity=0)
        parts = min(self.parts, len(tids))
        capacity = math.ceil(len(tids) / parts)
        rng = random.Random(self.seed)

        attributes = self.sample_attributes or table.schema.attributes
        values = {tid: table.row(tid).values_for(attributes) for tid in tids}

        centroid_tids = rng.sample(tids, parts)
        centroid_columns = zip(*(values[tid] for tid in centroid_tids))
        # per attribute: each distinct value → its distance to each
        # centroid's value, all measured in one batched engine run
        rows: list[dict[str, list[float]]] = []
        for position, centroid_values in enumerate(centroid_columns):
            distinct = list(dict.fromkeys(entry[position] for entry in values.values()))
            rows.append(
                dict(zip(distinct, self.engine.distance_rows(distinct, centroid_values)))
            )

        def centroid_distances(tid: int) -> list[float]:
            totals = [0.0] * parts
            for row_memo, value in zip(rows, values[tid]):
                totals = [total + part for total, part in zip(totals, row_memo[value])]
            return totals

        partitions = [
            Partition(index=index, centroid_tid=tid, member_tids=[tid])
            for index, tid in enumerate(centroid_tids)
        ]
        # Per-part max-heap of (-distance, tid): the root is the member
        # farthest from the centroid, the eviction candidate of Algorithm 3.
        heaps: list[list[tuple[float, int]]] = [[(0.0, tid)] for tid in centroid_tids]

        chosen = set(centroid_tids)
        remaining = [tid for tid in tids if tid not in chosen]
        for tid in remaining:
            distances = centroid_distances(tid)
            closest = distances.index(min(distances))
            if partitions[closest].size < capacity:
                self._insert(partitions[closest], heaps[closest], tid, distances[closest])
                continue
            # The closest part is full: either displace its farthest member or
            # send the new tuple elsewhere, whichever keeps members closer.
            top_negative, top_tid = heaps[closest][0]
            top_distance = -top_negative
            if distances[closest] < top_distance:
                heapq.heapreplace(heaps[closest], (-distances[closest], tid))
                partitions[closest].member_tids.remove(top_tid)
                partitions[closest].member_tids.append(tid)
                displaced, distances = top_tid, centroid_distances(top_tid)
            else:
                displaced = tid
            self._place_in_closest_open(displaced, distances, partitions, heaps, capacity)
        return PartitionResult(partitions=partitions, capacity=capacity)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _insert(
        partition: Partition,
        heap: list[tuple[float, int]],
        tid: int,
        distance: float,
    ) -> None:
        partition.member_tids.append(tid)
        heapq.heappush(heap, (-distance, tid))

    def _place_in_closest_open(
        self,
        tid: int,
        distances: list[float],
        partitions: list[Partition],
        heaps: list[list[tuple[float, int]]],
        capacity: int,
    ) -> None:
        """Insert a displaced tuple into its closest part that still has room.

        ``distances`` holds the tuple's distance to every part's centroid.
        """
        open_parts = [p.index for p in partitions if p.size < capacity]
        if not open_parts:
            # All parts are at capacity (can only happen through rounding on
            # the very last tuple); relax the bound for the closest part.
            open_parts = [p.index for p in partitions]
        # open_parts ascends, so min picks the lowest-numbered closest part
        best = min(open_parts, key=distances.__getitem__)
        self._insert(partitions[best], heaps[best], tid, distances[best])


def hash_partition(table: Table, parts: int) -> PartitionResult:
    """A trivial round-robin partitioner, used as the ablation baseline."""
    if parts < 1:
        raise ValueError("the number of parts must be >= 1")
    tids = table.tids
    parts = min(parts, max(len(tids), 1))
    capacity = math.ceil(len(tids) / parts) if tids else 0
    partitions = [Partition(index=i, centroid_tid=-1) for i in range(parts)]
    for position, tid in enumerate(tids):
        partitions[position % parts].member_tids.append(tid)
    for partition in partitions:
        if partition.member_tids:
            partition.centroid_tid = partition.member_tids[0]
    return PartitionResult(partitions=partitions, capacity=capacity)
