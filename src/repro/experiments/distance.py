"""Table 5: the distance-metric comparison, as a checked-in spec + renderer.

The paper compares the Levenshtein distance (MLNClean's default) against the
cosine distance on both CAR and HAI at 5 % errors, finding Levenshtein clearly
better on the sparse CAR data (typos early in a string inflate cosine
distances) and mildly better on HAI.  The checked-in
``specs/table05.json`` extends the grid with the Damerau-Levenshtein variant;
both edit distances run through the same affix-stripping fast path
(:mod:`repro.distance.fastpath`), so the ablation isolates the transposition
operation rather than mixing in preprocessing differences.
"""

from __future__ import annotations

from repro.experiments.harness import ExperimentResult
from repro.experiments.spec import RunArtifact


def render_table05(artifact: RunArtifact) -> ExperimentResult:
    """Project a table05-shaped artifact onto the table's rows."""
    result = ExperimentResult(
        experiment="table05",
        description="MLNClean F1 under different distance metrics",
    )
    for cell in artifact.cells:
        result.add(
            {
                "dataset": cell.coords["workload"],
                "metric": cell.coords["config"]["label"],
                "f1": cell.metrics["f1"],
                "precision": cell.metrics["precision"],
                "recall": cell.metrics["recall"],
                "runtime_s": cell.metrics["runtime_s"],
            }
        )
    return result

