"""Shared machinery of the experiment harnesses.

The harness keeps every run reproducible (explicit seeds), caches generated
workloads so a sweep over error rates does not regenerate the clean table on
every step, and renders results as fixed-width text tables — the same rows
the paper's figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from repro.core.config import MLNCleanConfig
from repro.errors.injector import ErrorSpec
from repro.session import Cleaner, CleaningSession
from repro.workloads.base import Workload, WorkloadInstance
from repro.workloads.registry import get_workload_generator, recommended_config

if TYPE_CHECKING:
    from repro.experiments.spec import RunArtifact

#: default scaled-down workload sizes used when the caller does not override
#: them; the paper's datasets are orders of magnitude larger, but the shapes
#: of the curves only need enough tuples for stable statistics.
DEFAULT_TUPLES = {"car": 1200, "hai": 1600, "tpch": 1800}


@dataclass
class ExperimentResult:
    """Rows of one figure/table plus a plain-text rendering."""

    experiment: str
    description: str
    rows: list[dict[str, object]] = field(default_factory=list)

    def add(self, row: dict[str, object]) -> None:
        self.rows.append(row)

    def columns(self) -> list[str]:
        columns: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        return columns

    def render(self) -> str:
        """A fixed-width table with one line per row (the figure's series)."""
        columns = self.columns()
        if not columns:
            return f"{self.experiment}: no rows"
        cells = [[str(row.get(column, "")) for column in columns] for row in self.rows]
        widths = [
            max(len(columns[i]), *(len(row[i]) for row in cells)) if cells else len(columns[i])
            for i in range(len(columns))
        ]
        lines = [
            f"# {self.experiment}: {self.description}",
            "  ".join(columns[i].ljust(widths[i]) for i in range(len(columns))),
            "  ".join("-" * widths[i] for i in range(len(columns))),
        ]
        lines.extend(
            "  ".join(row[i].ljust(widths[i]) for i in range(len(columns))) for row in cells
        )
        return "\n".join(lines)

    def series(self, key: str) -> list[object]:
        """The values of one column across all rows."""
        return [row.get(key) for row in self.rows]


@dataclass(frozen=True)
class Projection:
    """A figure drawn from a shared sweep: its x axis and the columns it plots.

    Figures 8-11 share the τ sweep and Figures 12-14 the error-rate sweep;
    each figure is the same cells with fewer columns.  ``axis`` is
    ``"threshold"`` (the cell's ``abnormal_threshold`` override) or a
    coordinate key such as ``"error_rate"``.
    """

    experiment: str
    description: str
    axis: str
    columns: tuple

    def __call__(self, artifact: RunArtifact) -> ExperimentResult:
        result = ExperimentResult(self.experiment, self.description)
        for cell in artifact.cells:
            coords = cell.coords
            if self.axis == "threshold":
                x = coords["config"]["overrides"]["abnormal_threshold"]
            else:
                x = coords[self.axis]
            row: dict = {"dataset": coords["workload"], self.axis: x}
            for column in self.columns:
                if column in cell.metrics:
                    row[column] = cell.metrics[column]
            result.add(row)
        return result


# ----------------------------------------------------------------------
# workload caching
# ----------------------------------------------------------------------
_WORKLOAD_CACHE: dict[tuple[str, int, int], Workload] = {}


def load_workload(dataset: str, tuples: Optional[int] = None, seed: int = 7) -> Workload:
    """A (cached) clean workload of the requested dataset and size."""
    size = tuples if tuples is not None else DEFAULT_TUPLES.get(dataset.lower(), 1500)
    key = (dataset.lower(), size, seed)
    if key not in _WORKLOAD_CACHE:
        _WORKLOAD_CACHE[key] = get_workload_generator(dataset, tuples=size, seed=seed).build()
    return _WORKLOAD_CACHE[key]


def prepare_instance(
    dataset: str,
    tuples: Optional[int] = None,
    error_rate: float = 0.05,
    replacement_ratio: float = 0.5,
    seed: int = 7,
    error_seed: int = 42,
) -> WorkloadInstance:
    """A dirty instance of ``dataset`` with the requested error profile."""
    workload = load_workload(dataset, tuples, seed)
    spec = ErrorSpec(
        error_rate=error_rate, replacement_ratio=replacement_ratio, seed=error_seed
    )
    return workload.make_instance(spec)


# ----------------------------------------------------------------------
# sessions
# ----------------------------------------------------------------------
def session_for_instance(
    instance: WorkloadInstance,
    cleaner: Optional[Union[Cleaner, str]] = None,
    config: Optional[MLNCleanConfig] = None,
) -> CleaningSession:
    """A ready-to-run :class:`CleaningSession` over a workload instance.

    The session carries the instance's rules, dirty table and ground truth;
    ``cleaner`` is a :class:`~repro.session.Cleaner` or a registered name
    (default: MLNClean on its batch engine), and ``config`` defaults to the
    workload's recommended configuration from the registry.
    """
    return CleaningSession(
        rules=instance.rules,
        config=config if config is not None else recommended_config(instance.name),
        cleaner=cleaner,
        table=instance.dirty,
        ground_truth=instance.ground_truth,
    )
