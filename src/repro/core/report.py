"""The cleaning report returned by the MLNClean pipeline.

One :class:`CleaningReport` bundles everything an experiment needs: the
repaired table (before and after duplicate elimination), wall-clock timings
per phase, and — when the run was instrumented with a ground truth — the
overall repair accuracy (Eq. 7) and the per-component accuracy of AGP, RSC
and FSCR (Section 7.3).

Every cleaner and backend returns this one type.  What is specific to a
producer goes into :attr:`CleaningReport.details`, a plain JSON-safe dict
that holds only what the report does not already carry:

* ``"distance"`` — the run's :class:`~repro.perf.DistanceStats` counters
  (batch, distributed and streaming MLNClean),
* ``"detection"`` — the ``DirtyCells.to_json_dict()`` drill-down when a
  detector stack ran (batch and streaming),
* ``"workers"``, ``"partitions"``, ``"sim_runtime_s"``, ``"sequential_s"``,
  ``"speedup"`` — the distributed simulation,
* ``"detected_cells"`` (and ``"weights"`` for the factor graph) — the
  HoloClean-style baselines.

Experiment cells promote every top-level number of ``details`` to a metric,
so a number that is not a metric belongs in a nested dict.

Reports serialize to JSON (:meth:`CleaningReport.to_json_dict` /
:meth:`CleaningReport.from_json_dict`) so experiment artifacts can be
persisted, diffed run-over-run, and gated in CI.  The JSON form captures the
comparison-relevant surface losslessly — the three tables, timings, repair
accuracy, per-stage :class:`~repro.metrics.component.StageCounts`, dedup
listing, backend name and ``details``; only the stage merge/repair listings
are dropped.  Serializing is idempotent: a deserialized report serializes to
the same JSON again, bit for bit.

The module also defines the **deterministic report signature** the golden
matrix, the equivalence tests and the service compare: the report JSON minus
its wall-clock surface.  Cleaning output (tables, stage counts, dedup
listing, accuracy, backend) is bit-reproducible; wall-clock timings and the
drill-down under ``details`` are not, so :func:`report_signature_dict` masks
exactly those two keys and nothing else.  Two reports with equal signatures
repaired the data identically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.agp import AGPOutcome
from repro.core.dedup import DeduplicationResult
from repro.core.fscr import FSCROutcome
from repro.core.rsc import RSCOutcome
from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.metrics.accuracy import RepairAccuracy
from repro.metrics.component import ComponentAccuracy, StageCounts
from repro.metrics.timing import TimingBreakdown


def table_to_json_dict(table: Table) -> dict:
    """One table as a JSON-safe dictionary (schema, name, tid-keyed rows)."""
    attributes = table.attributes
    return {
        "name": table.name,
        "attributes": list(attributes),
        "rows": [
            [row.tid, list(row.values_for(attributes))] for row in table
        ],
    }


def table_from_json_dict(data: dict) -> Table:
    """Rebuild a table from :func:`table_to_json_dict` output."""
    attributes = list(data["attributes"])
    table = Table(Schema(attributes), name=data["name"])
    for tid, values in data["rows"]:
        table.append(dict(zip(attributes, values)), tid=int(tid))
    return table


@dataclass
class StageDrilldown:
    """A deserialized stage outcome: the counts survive, the listings don't.

    :meth:`CleaningReport.from_json_dict` puts one of these wherever the
    live report carried an AGP/RSC/FSCR outcome, so
    :attr:`CleaningReport.component_accuracy` keeps working on reports read
    back from JSON.
    """

    counts: StageCounts = field(default_factory=StageCounts)


@dataclass
class CleaningReport:
    """Everything produced by one cleaning run, whatever the cleaner or backend."""

    #: the input (dirty) table
    dirty: Table
    #: the repaired table with every tuple still present
    repaired: Table
    #: the repaired table after duplicate elimination (equals ``repaired``
    #: when deduplication is disabled)
    cleaned: Table
    #: wall-clock breakdown per pipeline phase
    timings: TimingBreakdown = field(default_factory=TimingBreakdown)
    #: stage outcomes, for drill-down and for the component metrics
    agp: Optional[AGPOutcome] = None
    rsc: Optional[RSCOutcome] = None
    fscr: Optional[FSCROutcome] = None
    dedup: Optional[DeduplicationResult] = None
    #: overall repair accuracy (only in instrumented runs)
    accuracy: Optional[RepairAccuracy] = None
    #: name of the execution backend that produced the report
    #: ("batch", "distributed", "streaming", ...)
    backend: Optional[str] = None
    #: producer-specific drill-down, a JSON-safe dict (see the module
    #: docstring for its keys)
    details: dict = field(default_factory=dict)

    @property
    def runtime(self) -> float:
        """Total wall-clock time of the run in seconds."""
        return self.timings.total

    @property
    def component_accuracy(self) -> ComponentAccuracy:
        """AGP / RSC / FSCR accuracy assembled from the stage outcomes."""
        counts = StageCounts()
        if self.agp is not None:
            counts = counts.merge(self.agp.counts)
        if self.rsc is not None:
            counts = counts.merge(self.rsc.counts)
        if self.fscr is not None:
            counts = counts.merge(self.fscr.counts)
        return ComponentAccuracy(counts)

    @property
    def stages_scored(self) -> bool:
        """Whether the stage counts were scored against a ground truth.

        Only a batch MLNClean run with a ground truth scores its stage
        records (:func:`~repro.metrics.component.score_stages`); any other
        report's component metrics would be unscored zero-count defaults, so
        :meth:`summary`, :meth:`describe` and the experiment cells leave
        them out.
        """
        return self.backend == "batch" and self.accuracy is not None

    @property
    def f1(self) -> float:
        """Overall F1 (0.0 when the run was not instrumented)."""
        return self.accuracy.f1 if self.accuracy is not None else 0.0

    def summary(self) -> dict[str, float]:
        """A flat dictionary of the headline numbers (for tables/benchmarks)."""
        summary: dict[str, float] = {
            "runtime_seconds": self.runtime,
            "tuples_in": float(len(self.dirty)),
            "tuples_out": float(len(self.cleaned)),
        }
        if self.accuracy is not None:
            summary.update(
                {
                    "precision": self.accuracy.precision,
                    "recall": self.accuracy.recall,
                    "f1": self.accuracy.f1,
                }
            )
        if self.stages_scored:
            summary.update(self.component_accuracy.as_dict())
        return summary

    # ------------------------------------------------------------------
    # JSON (de)serialization
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        """The report as a JSON-safe dictionary (see the module docstring)."""
        stages = {}
        for label, outcome in (("agp", self.agp), ("rsc", self.rsc), ("fscr", self.fscr)):
            stages[label] = (
                {"counts": outcome.counts.as_dict()} if outcome is not None else None
            )
        return {
            "dirty": table_to_json_dict(self.dirty),
            "repaired": table_to_json_dict(self.repaired),
            "cleaned": table_to_json_dict(self.cleaned),
            "timings": self.timings.as_dict(),
            "stages": stages,
            "dedup": (
                {
                    "removed_tids": list(self.dedup.removed_tids),
                    "duplicate_classes": [
                        list(tids) for tids in self.dedup.duplicate_classes
                    ],
                }
                if self.dedup is not None
                else None
            ),
            "accuracy": (
                self.accuracy.to_json_dict() if self.accuracy is not None else None
            ),
            "backend": self.backend,
            "details": self.details,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CleaningReport":
        """Rebuild a report from :meth:`to_json_dict` output.

        Tables, timings, accuracy and stage counts come back as full
        objects; stage outcomes come back as :class:`StageDrilldown` (counts
        only) and ``details`` as the stored dict.
        """
        cleaned = table_from_json_dict(data["cleaned"])
        stages = data.get("stages") or {}

        def drilldown(label: str) -> Optional[StageDrilldown]:
            stored = stages.get(label)
            if stored is None:
                return None
            return StageDrilldown(counts=StageCounts.from_dict(stored["counts"]))

        dedup_data = data.get("dedup")
        dedup = (
            DeduplicationResult(
                deduplicated=cleaned,
                removed_tids=[int(tid) for tid in dedup_data["removed_tids"]],
                duplicate_classes=[
                    [int(tid) for tid in tids]
                    for tids in dedup_data["duplicate_classes"]
                ],
            )
            if dedup_data is not None
            else None
        )
        accuracy_data = data.get("accuracy")
        return cls(
            dirty=table_from_json_dict(data["dirty"]),
            repaired=table_from_json_dict(data["repaired"]),
            cleaned=cleaned,
            timings=TimingBreakdown(dict(data.get("timings") or {})),
            agp=drilldown("agp"),
            rsc=drilldown("rsc"),
            fscr=drilldown("fscr"),
            dedup=dedup,
            accuracy=(
                RepairAccuracy.from_json_dict(accuracy_data)
                if accuracy_data is not None
                else None
            ),
            backend=data.get("backend"),
            details=data.get("details") or {},
        )

    def describe(self) -> str:
        """A short human-readable report (used by the examples)."""
        lines = [
            f"tuples: {len(self.dirty)} in, {len(self.cleaned)} out"
            + (f" (backend: {self.backend})" if self.backend else ""),
            f"runtime: {self.runtime:.3f}s "
            f"({', '.join(f'{k}={v:.3f}s' for k, v in self.timings.phases.items())})",
        ]
        if self.accuracy is not None:
            lines.append(
                f"accuracy: precision={self.accuracy.precision:.3f} "
                f"recall={self.accuracy.recall:.3f} f1={self.accuracy.f1:.3f}"
            )
        if self.stages_scored:
            component = self.component_accuracy
            lines.append(
                f"components: AGP P/R={component.precision_a:.3f}/{component.recall_a:.3f} "
                f"RSC P/R={component.precision_r:.3f}/{component.recall_r:.3f} "
                f"FSCR P/R={component.precision_f:.3f}/{component.recall_f:.3f}"
            )
        if self.dedup is not None:
            lines.append(f"duplicates removed: {self.dedup.removed_count}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# deterministic report signatures
# ----------------------------------------------------------------------
#: the wall-clock surface of a report JSON — everything else is reproducible
MASKED_REPORT_KEYS = ("timings", "details")


def canonical_json(value: object) -> str:
    """Canonical JSON: sorted keys, no whitespace — byte-comparable."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def report_signature_dict(report: Union[CleaningReport, dict]) -> dict:
    """The deterministic projection of a report's JSON form.

    Drops exactly :data:`MASKED_REPORT_KEYS` (wall-clock timings and the
    perf/backend drill-down, the only non-reproducible parts); the tables,
    stage counts, dedup listing, accuracy counters and backend name all
    remain, byte for byte.
    """
    data = report.to_json_dict() if isinstance(report, CleaningReport) else dict(report)
    return {key: value for key, value in data.items() if key not in MASKED_REPORT_KEYS}


def report_signature(report: Union[CleaningReport, dict]) -> str:
    """SHA-256 over the canonical JSON of the deterministic projection."""
    blob = canonical_json(report_signature_dict(report))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
