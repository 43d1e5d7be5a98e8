"""Service-replay experiment: the serving path must not change the answer.

``specs/service_replay.json`` runs the same grid cells twice — once with the
plain ``mlnclean`` cleaner (the batch reference) and once with the
``"service"`` cleaner, which routes each request through an in-process
:class:`~repro.service.service.CleaningService` (bounded queue, shard
routing, executor hop).  The renderer then checks, per grid position, that
the service cell reproduced the batch cell exactly: identical cleaned
tables and identical headline metrics (wall-clock excluded).  Like
``streaming_replay``, the check is computed from the artifact's
round-tripped reports, so re-rendering a deserialized artifact re-verifies
the equivalence without re-running anything.
"""

from __future__ import annotations

from repro.experiments.harness import ExperimentResult
from repro.experiments.spec import RunArtifact
from repro.experiments.streaming import is_batch_reference, replay_grid_key

#: per-cell metric keys that name the system or measure wall-clock — the
#: only metrics allowed to differ between the batch and service cells
_INCOMPARABLE_METRICS = ("system", "runtime_s")


def _comparable_metrics(cell) -> dict:
    return {
        key: value
        for key, value in cell.metrics.items()
        if key not in _INCOMPARABLE_METRICS
    }


def render_service_replay(artifact: RunArtifact) -> ExperimentResult:
    """Per-cleaner rows with exact-equality checks against the batch cell."""
    result = ExperimentResult(
        experiment="service_replay",
        description="batch MLNClean vs the same requests through repro.service",
    )
    references: dict[tuple, object] = {}
    for cell in artifact.cells:
        if is_batch_reference(cell):
            references[replay_grid_key(cell)] = cell
    for cell in artifact.cells:
        row = {
            "dataset": cell.coords["workload"],
            "system": cell.metrics["system"],
            "f1": cell.metrics["f1"],
            "runtime_s": cell.metrics["runtime_s"],
        }
        if not is_batch_reference(cell):
            reference = references.get(replay_grid_key(cell))
            if reference is not None:
                row["metrics_equal"] = _comparable_metrics(
                    cell
                ) == _comparable_metrics(reference)
                if cell.report is not None and reference.report is not None:
                    row["matches_batch"] = cell.report.cleaned.equals(
                        reference.report.cleaned
                    )
        result.add(row)
    return result

