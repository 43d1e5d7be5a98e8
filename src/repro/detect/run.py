"""Running a detector stack and projecting its result onto an MLN index.

:func:`run_detection` is the single execution seam every backend uses: it
resolves the stack, injects the run's injected-error ledger into detectors
that want one (``ground_truth`` attribute left ``None``), times the pass
under a ``stage:detect`` span, and feeds the ``repro_detector_cells_total``
/ ``repro_detect_seconds_total`` counters.

:class:`CleaningScope` is the dirty-scoped cleaning contract (exact-or-
prune): Stage I only enumerates blocks containing detected cells (and only
re-resolves groups holding an affected tuple), Stage II only re-fuses the
affected tuples.  A detection that covers the whole table never builds a
scope at all — the pipeline takes today's exact code path, byte-identical
output included.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from typing import Optional

from repro.constraints.rules import Rule
from repro.dataset.table import Table
from repro.detect.base import DetectorSpec, DirtyCells, resolve_detectors
from repro.errors.groundtruth import GroundTruth
from repro.metrics.timing import TimingBreakdown
from repro.obs import DETECT_SECONDS, DETECTOR_CELLS, stage_scope


def inject_ground_truth(detector, ground_truth: Optional[GroundTruth]) -> None:
    """Bind the run's injected-error ledger to detectors that want one.

    A detector opts in by exposing a ``ground_truth`` attribute left at
    ``None`` (:class:`~repro.detect.builtin.PerfectDetector`); union members
    are reached recursively.  Detectors with a ledger already bound keep it.
    """
    if ground_truth is None:
        return
    if getattr(detector, "ground_truth", _MISSING) is None:
        detector.ground_truth = ground_truth
    for member in getattr(detector, "detectors", ()):
        inject_ground_truth(member, ground_truth)


_MISSING = object()


def run_detection(
    table: Table,
    rules: Sequence[Rule],
    detectors: Sequence[DetectorSpec],
    ground_truth: Optional[GroundTruth] = None,
    backend: str = "batch",
    timings: Optional[TimingBreakdown] = None,
) -> DirtyCells:
    """Run a detector stack over ``table`` and union the results.

    Returns the union with per-detector provenance (two stack entries with
    the same name get ``name`` / ``name#2`` provenance labels).  The pass is
    timed into ``timings`` (when given) under the ``detect`` phase, which
    also emits the ``stage:detect`` span and the stage-seconds counter.
    """
    resolved = resolve_detectors(detectors)
    if not resolved:
        raise ValueError("run_detection needs at least one detector")
    timings = timings if timings is not None else TimingBreakdown()
    started = time.perf_counter()
    cells: set = set()
    by_detector: dict[str, set] = {}
    with stage_scope(timings, backend, "detect", detectors=len(resolved)) as scope:
        for detector in resolved:
            inject_ground_truth(detector, ground_truth)
            found = set(detector.detect(table, rules))
            label = provenance_label(by_detector, detector)
            by_detector[label] = found
            cells |= found
            DETECTOR_CELLS.labels(detector=label).inc(len(found))
        scope.set(cells=len(cells))
    seconds = time.perf_counter() - started
    DETECT_SECONDS.labels(backend=backend).inc(seconds)
    return DirtyCells(cells=cells, by_detector=by_detector, seconds=seconds)


def provenance_label(by_detector: dict, detector) -> str:
    """The detector's name, suffixed ``#2``, ``#3``, ... if already taken."""
    base = getattr(detector, "name", None) or type(detector).__name__.lower()
    label, suffix = base, 2
    while label in by_detector:
        label = f"{base}#{suffix}"
        suffix += 1
    return label


def detection_details(
    detected: DirtyCells, scope: Optional[CleaningScope]
) -> dict:
    """The detection drill-down of a run (``report.details["detection"]``).

    ``scoped`` says whether the run was pruned to the detected cells; a
    scoped run also lists the blocks it selected and its affected tuples.
    """
    payload = detected.to_json_dict()
    payload["scoped"] = scope is not None
    if scope is not None:
        payload["scoped_blocks"] = scope.selected_block_names()
        payload["affected_tuples"] = len(scope.tids)
    return payload


class CleaningScope:
    """A detection result projected onto the blocks/tuples of one run.

    Built only when the detection does *not* cover the whole table (the
    exact-or-prune pivot lives in the pipeline).  Selection rules:

    * a **block** is selected when some detected cell lands in it — the
      cell's attribute belongs to the block's rule and the block covers the
      cell's tuple,
    * a **group** is selected when it holds at least one affected tuple
      (a tuple with any detected cell): AGP only merges selected abnormal
      groups (a merge rewrites the reason-part values of the group's
      tuples, which a scoped run must not do to undetected tuples) and RSC
      only resolves selected groups — their γs are the fusion inputs of
      the tuples Stage II will re-fuse,
    * an **affected tuple** is one with at least one detected cell.

    Skipping AGP merges and RSC resolution of unselected groups only
    changes the cleaned versions of tuples that are never re-fused; the
    detect-scoped benchmark asserts that the repairs of detected cells
    match a full-scope run.
    """

    def __init__(self, detected: DirtyCells, table: Table):
        self.detected = detected
        #: the affected tuples (≥ 1 detected cell), restricted to the table
        self.tids: set[int] = {
            cell.tid for cell in detected.cells if table.has_tid(cell.tid)
        }
        self.attributes: set[str] = detected.attributes()
        self._block_cache: dict[str, bool] = {}

    def selects_block(self, block) -> bool:
        """Does the block contain at least one detected cell?"""
        cached = self._block_cache.get(block.name)
        if cached is not None:
            return cached
        block_attrs = self.attributes.intersection(block.attributes)
        selected = False
        if block_attrs:
            block_tids = {
                tid for group in block.group_list for tid in group.tids
            }
            selected = any(
                cell.attribute in block_attrs and cell.tid in block_tids
                for cell in self.detected.cells
            )
        self._block_cache[block.name] = selected
        return selected

    def select_blocks(self, blocks: Sequence) -> list:
        """The sub-list of blocks containing detected cells, in order."""
        return [block for block in blocks if self.selects_block(block)]

    def selects_group(self, group) -> bool:
        """Does the group hold at least one affected tuple?"""
        return not self.tids.isdisjoint(group.tids)

    def selected_block_names(self) -> list[str]:
        """The names of the blocks selected so far, sorted (for reports)."""
        return sorted(
            name for name, selected in self._block_cache.items() if selected
        )
