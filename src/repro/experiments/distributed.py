"""Figure 15 and Table 6: distributed MLNClean, as specs + renderers.

* **Figure 15** runs distributed MLNClean on HAI and TPC-H while varying the
  error percentage, reporting F1 and runtime (``specs/fig15.json``).
* **Table 6** fixes the workload (TPC-H, 5 % errors) and varies the number of
  workers from 2 to 10, reporting the runtime (``specs/table06.json``); the
  paper observes roughly a 6.7× speedup from 2 to 10 workers.

Workers are simulated in-process (see :mod:`repro.distributed`), so the
reported runtimes are the simulated parallel makespan (the runner exposes
them as the ``sim_runtime_s`` / ``sequential_s`` / ``speedup`` metrics of
each cell); the sequential runtime is included so speedups can be derived.
"""

from __future__ import annotations

from repro.experiments.harness import ExperimentResult
from repro.experiments.spec import RunArtifact


def render_fig15(artifact: RunArtifact) -> ExperimentResult:
    """Project a fig15-shaped artifact onto the figure's rows."""
    # cell metrics are floats; the worker count prints as the integer it is
    workers = int(artifact.cells[0].metrics["workers"]) if artifact.cells else 0
    result = ExperimentResult(
        experiment="fig15",
        description=f"distributed MLNClean ({workers} workers) vs error percentage",
    )
    for cell in artifact.cells:
        result.add(
            {
                "dataset": cell.coords["workload"],
                "error_rate": cell.coords["error_rate"],
                "workers": int(cell.metrics["workers"]),
                "f1": cell.metrics["f1"],
                "runtime_s": cell.metrics["sim_runtime_s"],
                "sequential_s": cell.metrics["sequential_s"],
                "speedup": cell.metrics["speedup"],
            }
        )
    return result


def render_table06(artifact: RunArtifact) -> ExperimentResult:
    """Project a table06-shaped artifact onto the table's rows."""
    result = ExperimentResult(
        experiment="table06",
        description="distributed MLNClean runtime vs number of workers",
    )
    # each dataset's speedup is against that dataset's first cell
    baselines: dict[str, float] = {}
    for cell in artifact.cells:
        runtime = cell.metrics["sim_runtime_s"]
        baseline_runtime = baselines.setdefault(cell.coords["workload"], runtime)
        result.add(
            {
                "dataset": cell.coords["workload"],
                "workers": int(cell.metrics["workers"]),
                "runtime_s": runtime,
                "sequential_s": cell.metrics["sequential_s"],
                "f1": cell.metrics["f1"],
                "speedup_vs_first": round(
                    baseline_runtime / runtime if runtime else 1.0, 3
                ),
            }
        )
    return result

