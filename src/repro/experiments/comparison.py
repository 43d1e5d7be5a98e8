"""Figures 6 and 7: MLNClean vs HoloClean, as checked-in specs + renderers.

* **Figure 6** varies the error percentage from 5 % to 30 % on CAR and HAI and
  reports F1 (panels a/b) and runtime (panels c/d) for both systems.
* **Figure 7** fixes the total error rate at 5 % and varies the error type
  ratio ``Rret`` — the fraction of replacement errors — from 0 (all typos) to
  100 % (all replacements).

The grids live in ``specs/fig06.json`` and ``specs/fig07.json``; the
renderers here project a :class:`~repro.experiments.spec.RunArtifact` of
either spec onto the familiar
:class:`~repro.experiments.harness.ExperimentResult` rows.  Rendering is a
pure projection of the artifact, so a deserialized artifact re-renders the
identical figure.
"""

from __future__ import annotations

from repro.experiments.harness import ExperimentResult
from repro.experiments.spec import RunArtifact


def render_fig06(artifact: RunArtifact) -> ExperimentResult:
    """Project a fig06-shaped artifact onto the figure's rows."""
    result = ExperimentResult(
        experiment="fig06",
        description="F1 / runtime vs error percentage (MLNClean vs HoloClean)",
    )
    for cell in artifact.cells:
        row = {"dataset": cell.coords["workload"], **cell.metrics}
        row["error_rate"] = cell.coords["error_rate"]
        result.add(row)
    return result


def render_fig07(artifact: RunArtifact) -> ExperimentResult:
    """Project a fig07-shaped artifact onto the figure's rows."""
    result = ExperimentResult(
        experiment="fig07",
        description="F1 vs error type ratio Rret (MLNClean vs HoloClean)",
    )
    for cell in artifact.cells:
        row = {"dataset": cell.coords["workload"], **cell.metrics}
        row["replacement_ratio"] = cell.coords["replacement_ratio"]
        result.add(row)
    return result

