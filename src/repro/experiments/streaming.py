"""Streaming experiments: incremental cleaning vs batch re-cleaning.

Not figures of the paper — the paper's pipeline is batch-only — but the
natural next question for a deployed cleaner: when data keeps arriving, how
much does incremental maintenance save over re-running MLNClean from
scratch on every micro-batch, and does it give the same answer?

Two experiments:

* ``streaming_replay`` — declarative (``specs/streaming_replay.json``):
  the same workload through the batch and streaming backends as one
  :class:`~repro.experiments.spec.ExperimentSpec` grid, with
  :func:`render_streaming_replay` checking the cleaned tables agree cell for
  cell (the artifact round-trips the tables, so the check also works on a
  deserialized artifact),
* :func:`streaming_incremental` — imperative by necessity: it interleaves
  the incremental engine and a naive full re-clean batch by batch and times
  both paths per micro-batch, a time-series the per-cell grid model does
  not express.

The harness drives one stream through both paths:

1. a *load phase* replays the dirty workload table in insert micro-batches
   (every block is affected, so this phase bounds the worst case), then
2. a *steady-state phase* applies batches of localized updates — value
   corrections touching one rule's attribute, the regime where the
   block-granular re-cleaning pays off.

After each batch the naive path re-cleans the entire current table with
batch :class:`~repro.core.pipeline.MLNClean`; the incremental path applies
the same batch through :class:`~repro.streaming.cleaner.StreamingMLNClean`.
Both cleaned tables are compared for equality at every step, so the
reported speedup is for *identical output*.
"""

from __future__ import annotations

import random
import time
from typing import Optional

from repro.core.config import MLNCleanConfig
from repro.core.pipeline import MLNClean
from repro.errors.injector import ErrorSpec
from repro.experiments.harness import ExperimentResult
from repro.experiments.spec import RunArtifact
from repro.streaming.cleaner import StreamingMLNClean
from repro.streaming.delta import DeltaBatch, Update
from repro.streaming.source import WorkloadStreamSource
from repro.workloads.registry import recommended_config


def replay_grid_key(cell) -> tuple:
    """The full non-cleaner grid position of a cell (what "same run" means)."""
    coords = cell.coords
    return (
        coords["workload"],
        coords["error_rate"],
        coords["replacement_ratio"],
        repr(sorted(coords["config"]["overrides"].items())),
    )


def is_batch_reference(cell) -> bool:
    """True for the MLNClean-on-batch cell every other cell is checked against."""
    coords = cell.coords
    return (
        coords["cleaner"] == "mlnclean"
        and coords.get("options", {}).get("backend") in (None, "batch")
    )


def render_streaming_replay(artifact: RunArtifact) -> ExperimentResult:
    """Per-backend rows, plus an exact-equality check against the batch run.

    The equality column is derived from the artifact's round-tripped cleaned
    tables, so re-rendering a deserialized artifact re-verifies it.  Batch
    references are matched on the *full* grid position (workload, error
    rate, ratio, config overrides), so multi-rate grids compare each
    streaming cell against the batch run of the same cell.
    """
    result = ExperimentResult(
        experiment="streaming_replay",
        description="batch vs streaming-replay MLNClean (same workload)",
    )
    batch_cleaned: dict[tuple, object] = {}
    for cell in artifact.cells:
        if is_batch_reference(cell) and cell.report is not None:
            batch_cleaned[replay_grid_key(cell)] = cell.report.cleaned
    for cell in artifact.cells:
        row = {
            "dataset": cell.coords["workload"],
            "system": cell.metrics["system"],
            "f1": cell.metrics["f1"],
            "runtime_s": cell.metrics["runtime_s"],
        }
        if not is_batch_reference(cell):
            reference = batch_cleaned.get(replay_grid_key(cell))
            if reference is not None and cell.report is not None:
                row["matches_batch"] = cell.report.cleaned.equals(reference)
        result.add(row)
    return result


def _update_attribute(source: WorkloadStreamSource) -> str:
    """The rule attribute involved in the fewest rules (most localized)."""
    involvement: dict[str, int] = {}
    for rule in source.rules:
        for attribute in rule.attributes:
            involvement[attribute] = involvement.get(attribute, 0) + 1
    return min(involvement, key=lambda attribute: (involvement[attribute], attribute))


def streaming_incremental(
    dataset: str = "hai",
    tuples: int = 400,
    batch_size: int = 100,
    update_batches: int = 4,
    updates_per_batch: int = 10,
    error_rate: float = 0.05,
    seed: int = 7,
    error_seed: int = 42,
    config: Optional[MLNCleanConfig] = None,
) -> ExperimentResult:
    """Wall-clock of incremental vs naive full re-clean, batch by batch."""
    result = ExperimentResult(
        experiment="streaming",
        description=(
            f"incremental vs full re-clean on a {dataset} stream "
            f"({tuples} tuples loaded in batches of {batch_size}, then "
            f"{update_batches} x {updates_per_batch} localized updates)"
        ),
    )
    source = WorkloadStreamSource(
        dataset,
        tuples=tuples,
        batch_size=batch_size,
        error_spec=ErrorSpec(error_rate=error_rate, seed=error_seed),
        seed=seed,
    )
    if config is None:
        config = recommended_config(dataset)
    engine = StreamingMLNClean(source.rules, source.schema, config=config)
    naive = MLNClean(config)
    rng = random.Random(seed)

    incremental_total = 0.0
    full_total = 0.0

    def measure(phase: str, batch: DeltaBatch) -> None:
        nonlocal incremental_total, full_total
        started = time.perf_counter()
        report = engine.apply_batch(batch)
        incremental_seconds = time.perf_counter() - started
        started = time.perf_counter()
        reference = naive.clean(engine.dirty.copy(), source.rules)
        full_seconds = time.perf_counter() - started
        incremental_total += incremental_seconds
        full_total += full_seconds
        result.add(
            {
                "phase": phase,
                "batch": report.sequence,
                "tuples": report.tuples_total,
                "deltas": len(batch),
                "blocks_recleaned": len(report.affected_blocks),
                "tuples_refused": len(report.resolved_tids),
                "incremental_s": round(incremental_seconds, 4),
                "full_reclean_s": round(full_seconds, 4),
                "speedup": round(full_seconds / incremental_seconds, 2)
                if incremental_seconds > 0
                else float("inf"),
                "output_equal": engine.cleaned.equals(reference.cleaned),
            }
        )

    for stream_batch in source:
        measure("load", stream_batch.deltas)

    update_attribute = _update_attribute(source)
    domain = [v for v in source.dirty.domain(update_attribute).values]
    for _ in range(update_batches):
        tids = rng.sample(engine.dirty.tids, min(updates_per_batch, len(engine.dirty)))
        batch = DeltaBatch(
            [Update(tid, {update_attribute: rng.choice(domain)}) for tid in tids]
        )
        measure("steady", batch)

    result.add(
        {
            "phase": "total",
            "incremental_s": round(incremental_total, 4),
            "full_reclean_s": round(full_total, 4),
            "speedup": round(full_total / incremental_total, 2)
            if incremental_total > 0
            else float("inf"),
            "output_equal": all(
                row["output_equal"] for row in result.rows if "output_equal" in row
            ),
        }
    )
    return result
