"""Detection-scoped cleaning vs the full-scope pipeline, as one harness.

:func:`detect_scoping` runs MLNClean on a dirty workload instance either
full-scope (``mode="full"``, no detection phase) or dirty-cell-scoped
(``mode="scoped"``, a refined violation detector prunes Stage I/II down to
the blocks, groups and tuples holding detected cells).  Both modes run the
*same* violation detector — the full-scope run uses it out-of-band, only to
know which cells to compare — so the two rows score repairs over one cell
set:

* ``raw_evaluations`` — exact metric evaluations of the cleaning run
  (detection excluded); the scoped run must do measurably less,
* ``repair_acc_detected`` — among the detected cells the injector actually
  corrupted, the fraction repaired to the ledger's clean value,
* ``repairs_digest`` — SHA-256 over the repaired values of every detected
  cell; equal digests mean the pruned run repaired the detected cells
  byte-identically to the full pipeline.
"""

from __future__ import annotations

import hashlib
import time
from typing import Optional

from repro.detect.run import run_detection
from repro.experiments.harness import ExperimentResult, prepare_instance
from repro.perf import global_distance_stats
from repro.session import CleaningSession
from repro.workloads.registry import recommended_config

#: the detector stack both modes agree on
DETECTORS = [{"name": "violation"}]


def detect_scoping(
    mode: str = "full",
    dataset: str = "hospital-sample",
    tuples: Optional[int] = 120,
    error_rate: float = 0.1,
    replacement_ratio: float = 0.5,
    seed: int = 7,
    error_seed: int = 42,
) -> ExperimentResult:
    """One full-scope or detect-scoped MLNClean run (see module doc)."""
    if mode not in ("full", "scoped"):
        raise ValueError(f"mode must be 'full' or 'scoped', got {mode!r}")
    instance = prepare_instance(
        dataset,
        tuples=tuples,
        error_rate=error_rate,
        replacement_ratio=replacement_ratio,
        seed=seed,
        error_seed=error_seed,
    )
    # the comparison cell set: what the shared detector stack flags
    detected = run_detection(
        instance.dirty,
        instance.rules,
        DETECTORS,
        ground_truth=instance.ground_truth,
    )
    session = CleaningSession(
        rules=instance.rules,
        config=recommended_config(dataset),
        table=instance.dirty,
        ground_truth=instance.ground_truth,
        detectors=list(DETECTORS) if mode == "scoped" else None,
    )
    stats_before = global_distance_stats()
    started = time.perf_counter()
    report = session.run()
    wall_seconds = time.perf_counter() - started
    delta = global_distance_stats().diff(stats_before)

    repairs = {}
    for cell in sorted(detected.cells, key=lambda c: (c.tid, c.attribute)):
        if report.repaired.has_tid(cell.tid):
            repairs[cell] = report.repaired.row(cell.tid)[cell.attribute]
    digest = hashlib.sha256(
        "\n".join(
            f"{cell.tid}\t{cell.attribute}\t{value}"
            for cell, value in repairs.items()
        ).encode("utf-8")
    ).hexdigest()
    truly_dirty = [
        cell for cell in repairs if instance.ground_truth.is_dirty(cell)
    ]
    fixed = sum(
        1
        for cell in truly_dirty
        if repairs[cell] == instance.ground_truth.clean_value(cell)
    )
    accuracy = report.accuracy
    result = ExperimentResult(
        experiment=f"detect_{mode}",
        description=(
            "violation-detected cleaning scope vs the full pipeline "
            f"({dataset}, {len(instance.dirty)} tuples)"
        ),
    )
    result.add(
        {
            "dataset": dataset,
            "system": f"MLNClean[{mode}]",
            "precision": round(accuracy.precision, 4) if accuracy else 0.0,
            "recall": round(accuracy.recall, 4) if accuracy else 0.0,
            "f1": round(accuracy.f1, 4) if accuracy else 0.0,
            "runtime_s": round(wall_seconds, 4),
            "raw_evaluations": delta.raw_evaluations,
            "distance_calls": delta.calls,
            "detected_cells": detected.count,
            "repair_acc_detected": round(fixed / len(truly_dirty), 4)
            if truly_dirty
            else 1.0,
            "repairs_digest": digest[:16],
        }
    )
    return result
