"""Incremental re-detection for the streaming engine.

A micro-batch dirties specific blocks (rules) and touches specific tuples;
re-running a whole detector stack over the retained table every tick would
throw that locality away.  :class:`StreamDetection` caches each detector's
verdicts at the granularity the detector declares:

* ``"rule"`` detectors (violation) keep one cell set per rule and recompute
  only the rules whose block the batch dirtied,
* ``"tuple"`` detectors (null / fixed / perfect / all-cells) keep one cell
  set per tuple and recompute only the touched tuples,
* ``"table"`` detectors (outlier, pinned-rules violation) are recomputed in
  full — their verdicts are global by nature.

Deleted tuples drop out of every cache.  The per-tick invalidation counts
are kept on :attr:`StreamDetection.last_recomputed` so tests (and curious
operators) can see exactly what a batch re-detected.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Optional

from repro.constraints.rules import Rule
from repro.dataset.table import Cell, Table
from repro.detect.base import DetectorSpec, DirtyCells, resolve_detectors
from repro.detect.run import inject_ground_truth, provenance_label
from repro.errors.groundtruth import GroundTruth
from repro.obs import DETECTOR_CELLS


class StreamDetection:
    """Per-detector verdict caches driving streaming re-detection."""

    def __init__(self, detectors: Sequence[DetectorSpec], rules: Sequence[Rule]):
        self.detectors = resolve_detectors(detectors)
        if not self.detectors:
            raise ValueError("StreamDetection needs at least one detector")
        self.rules = list(rules)
        #: per detector index: rule name → cells (``"rule"`` granularity)
        self._rule_cells: dict[int, dict[str, set[Cell]]] = {}
        #: per detector index: tid → cells (``"tuple"`` granularity)
        self._tuple_cells: dict[int, dict[int, set[Cell]]] = {}
        #: per detector index: the full cell set (``"table"`` granularity)
        self._table_cells: dict[int, set[Cell]] = {}
        #: what the last :meth:`update` recomputed, per provenance label:
        #: rule names for rule-granularity, tid count for tuple-granularity,
        #: ``"full"`` for table-granularity detectors
        self.last_recomputed: dict[str, object] = {}

    def update(
        self,
        table: Table,
        dirtied_rules: Iterable[str],
        touched_tids: Iterable[int],
        removed_tids: Iterable[int],
        ground_truth: Optional[GroundTruth] = None,
    ) -> DirtyCells:
        """Refresh the caches for one micro-batch and return the union.

        ``dirtied_rules`` are the rule names whose block the batch dirtied,
        ``touched_tids`` the inserted/updated tuples, ``removed_tids`` the
        deleted/evicted ones.
        """
        dirtied = set(dirtied_rules)
        touched = {tid for tid in touched_tids if table.has_tid(tid)}
        removed = set(removed_tids)
        self.last_recomputed = {}
        union: set[Cell] = set()
        by_detector: dict[str, set[Cell]] = {}
        for index, detector in enumerate(self.detectors):
            inject_ground_truth(detector, ground_truth)
            granularity = getattr(detector, "granularity", "table")
            if granularity == "rule" and hasattr(detector, "detect_rule"):
                cells, note = self._update_rule(index, detector, table, dirtied)
            elif granularity == "tuple":
                cells, note = self._update_tuple(
                    index, detector, table, touched, removed
                )
            else:
                cells = set(detector.detect(table, self.rules))
                self._table_cells[index] = cells
                note = "full"
            label = provenance_label(by_detector, detector)
            by_detector[label] = cells
            union |= cells
            self.last_recomputed[label] = note
            DETECTOR_CELLS.labels(detector=label).inc(len(cells))
        return DirtyCells(cells=union, by_detector=by_detector)

    def _update_rule(self, index, detector, table, dirtied):
        cache = self._rule_cells.setdefault(index, {})
        recomputed = []
        for rule in self.rules:
            if rule.name in dirtied or rule.name not in cache:
                cache[rule.name] = set(detector.detect_rule(table, rule))
                recomputed.append(rule.name)
        live = {rule.name for rule in self.rules}
        for stale in set(cache) - live:
            del cache[stale]
        cells = set().union(*cache.values()) if cache else set()
        # deletions shrink violations of untouched rules' blocks too — a
        # removed tuple can never stay flagged
        cells = {cell for cell in cells if table.has_tid(cell.tid)}
        return cells, recomputed

    def _update_tuple(self, index, detector, table, touched, removed):
        cache = self._tuple_cells.setdefault(index, {})
        for tid in removed:
            cache.pop(tid, None)
        recompute = {tid for tid in touched if table.has_tid(tid)}
        recompute.update(tid for tid in table.tids if tid not in cache)
        if recompute:
            subset = table.subset(sorted(recompute), name=f"{table.name}-redetect")
            found = detector.detect(subset, self.rules)
            fresh: dict[int, set[Cell]] = {tid: set() for tid in recompute}
            for cell in found:
                fresh.setdefault(cell.tid, set()).add(cell)
            cache.update(fresh)
        cells = set()
        for tid, tid_cells in cache.items():
            if table.has_tid(tid):
                cells |= tid_cells
        return cells, len(recompute)
