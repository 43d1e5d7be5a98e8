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

from collections.abc import Sequence
from dataclasses import replace
from typing import Optional

from repro.experiments.harness import ExperimentResult, default_error_rates
from repro.experiments.spec import (
    CleanerSpec,
    ExperimentRunner,
    RunArtifact,
    load_spec,
)


def distributed_cleaner(workers: int, label: Optional[str] = None) -> CleanerSpec:
    """MLNClean on the distributed backend with ``workers`` workers."""
    return CleanerSpec(
        cleaner="mlnclean",
        label=label,
        options={"backend": "distributed", "workers": int(workers)},
    )


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


def fig15_distributed(
    datasets: Sequence[str] = ("hai", "tpch"),
    error_rates: Optional[Sequence[float]] = None,
    workers: int = 4,
    tuples: Optional[int] = None,
    seed: int = 7,
) -> ExperimentResult:
    """Distributed F1 and runtime vs error percentage (Figure 15)."""
    rates = error_rates if error_rates is not None else default_error_rates()
    spec = replace(
        load_spec("fig15"),
        workloads=list(datasets),
        error_rates=list(rates),
        cleaners=[distributed_cleaner(workers)],
        tuples=tuples,
        seed=seed,
    )
    return render_fig15(ExperimentRunner(spec).run())


def render_table06(artifact: RunArtifact) -> ExperimentResult:
    """Project a table06-shaped artifact onto the table's rows."""
    result = ExperimentResult(
        experiment="table06",
        description="distributed MLNClean runtime vs number of workers",
    )
    baseline_runtime: Optional[float] = None
    for cell in artifact.cells:
        runtime = cell.metrics["sim_runtime_s"]
        if baseline_runtime is None:
            baseline_runtime = runtime
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


def table06_worker_scaling(
    dataset: str = "tpch",
    worker_counts: Sequence[int] = (2, 4, 6, 8, 10),
    error_rate: float = 0.05,
    tuples: Optional[int] = None,
    seed: int = 7,
) -> ExperimentResult:
    """Distributed runtime vs number of workers (Table 6)."""
    spec = replace(
        load_spec("table06"),
        workloads=[dataset],
        error_rates=[error_rate],
        cleaners=[distributed_cleaner(workers) for workers in worker_counts],
        tuples=tuples,
        seed=seed,
    )
    return render_table06(ExperimentRunner(spec).run())
