"""Declarative experiments: `ExperimentSpec` → `ExperimentRunner` → `RunArtifact`.

An experiment used to be a hand-rolled loop per figure.  Here it is pure
data: an :class:`ExperimentSpec` describes a grid of cleaner × workload ×
error rate × configuration overrides, the :class:`ExperimentRunner` expands
the grid through :class:`~repro.session.CleaningSession` runs, and the
result is a typed :class:`RunArtifact` — the spec, one unified
:class:`~repro.core.report.CleaningReport` per grid cell, the headline
metrics, and per-cell perf counters — with lossless ``to_json()`` /
``from_json()``.  Every paper figure/table is a checked-in spec (JSON files
under ``specs/``) plus a thin renderer over artifacts (the per-figure
modules), so a new comparison or regression gate is a spec diff, not code::

    from repro.experiments import ExperimentRunner, load_spec

    artifact = ExperimentRunner(load_spec("fig06")).run()
    artifact.save("fig06-artifact.json")        # diffable, CI-gateable
    # ... later, elsewhere:
    artifact = RunArtifact.load("fig06-artifact.json")

Grid cells are expanded in a fixed order — workload → error rate →
replacement ratio → config override → cleaner — and every run is seeded, so
re-running a spec reproduces the same (non-timing) numbers bit for bit.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Union

from repro.core.report import CleaningReport
from repro.detect.base import DirtyCells, detector_specs_identity
from repro.perf import global_distance_stats
from repro.registry import unknown_name
from repro.session import CleaningSession
from repro.session.cleaners import (
    Cleaner,
    MLNCleanCleaner,
    display_name,
    get_cleaner,
)
from repro.workloads.registry import recommended_config

#: where the checked-in experiment specs live (one JSON file per figure)
SPEC_DIR = Path(__file__).parent / "specs"


def _check_keys(cls, data: dict, what: str) -> None:
    """Reject keys that are not fields of ``cls``, naming them.

    A spec file, a ``run_experiment`` keyword and the CLI all decode through
    here, so a mistyped key is an error instead of a silent default.
    """
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(map(repr, unknown))}")


# ----------------------------------------------------------------------
# the spec: pure data
# ----------------------------------------------------------------------
@dataclass
class ConfigCell:
    """One point on the configuration axis of the grid.

    ``overrides`` are :class:`~repro.core.config.MLNCleanConfig` field
    overrides applied on top of the workload's recommended configuration
    (e.g. ``{"abnormal_threshold": 10}`` for a τ sweep); ``label`` names the
    point in renderings (defaults to a compact form of the overrides).
    """

    overrides: dict = field(default_factory=dict)
    label: Optional[str] = None

    @property
    def display(self) -> str:
        if self.label is not None:
            return self.label
        if not self.overrides:
            return "default"
        return ",".join(f"{k}={v}" for k, v in self.overrides.items())

    def to_json_dict(self) -> dict:
        return {"label": self.label, "overrides": dict(self.overrides)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ConfigCell":
        if "overrides" not in data and "label" not in data:
            # shorthand: a bare override mapping
            return cls(overrides=dict(data))
        _check_keys(cls, data, "config cell")
        return cls(
            overrides=dict(data.get("overrides") or {}),
            label=data.get("label"),
        )


@dataclass
class CleanerSpec:
    """One point on the cleaner axis of the grid.

    ``cleaner`` is a registered cleaner name, ``options`` its factory
    options (e.g. ``{"backend": "distributed", "workers": 4}`` for
    "mlnclean"), ``config`` extra per-cleaner
    :class:`~repro.core.config.MLNCleanConfig` overrides, and ``label`` the
    system name in renderings (defaults to the cleaner's display name).
    """

    cleaner: str = "mlnclean"
    label: Optional[str] = None
    options: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "cleaner": self.cleaner,
            "label": self.label,
            "options": dict(self.options),
            "config": dict(self.config),
        }

    @classmethod
    def from_json_dict(cls, data: Union[str, dict]) -> "CleanerSpec":
        if isinstance(data, str):
            # shorthand: just the registered cleaner name
            return cls(cleaner=data)
        _check_keys(cls, data, "cleaner spec")
        return cls(
            cleaner=data.get("cleaner", "mlnclean"),
            label=data.get("label"),
            options=dict(data.get("options") or {}),
            config=dict(data.get("config") or {}),
        )


#: shared config axis (one list) or a per-workload mapping (τ grids differ
#: per dataset in the paper)
ConfigGrid = Union[list[ConfigCell], dict[str, list[ConfigCell]]]

#: the spec fields that are grid axes; each must list at least one point
_AXES = (
    "workloads",
    "cleaners",
    "error_rates",
    "replacement_ratios",
    "config_grid",
    "detector_stacks",
)


@dataclass
class ExperimentSpec:
    """A full experiment as data: the grid, the sizes, the seeds."""

    name: str
    description: str = ""
    #: registered workload names ("car", "hai", "tpch", "hospital-sample")
    workloads: list[str] = field(default_factory=list)
    #: the cleaner axis (every cleaner runs on every other grid point)
    cleaners: list[CleanerSpec] = field(default_factory=lambda: [CleanerSpec()])
    #: the error-percentage axis of Section 7.1's injector
    error_rates: list[float] = field(default_factory=lambda: [0.05])
    #: the error-type-ratio (Rret) axis
    replacement_ratios: list[float] = field(default_factory=lambda: [0.5])
    #: the configuration axis; a dict maps workload → its own grid
    config_grid: ConfigGrid = field(default_factory=lambda: [ConfigCell()])
    #: the error-detection axis: each entry is ``None`` (no detection phase)
    #: or a detector-spec list (names / {"name", "options"} objects, see
    #: :mod:`repro.detect`); every stack runs on every other grid point
    detector_stacks: list = field(default_factory=lambda: [None])
    #: workload size; ``None`` = the harness defaults per dataset
    tuples: Optional[int] = None
    #: workload-generation seed
    seed: int = 7
    #: error-injection seed
    error_seed: int = 42
    #: keep the full per-cell CleaningReport in the artifact
    store_reports: bool = True

    def grid_for(self, workload: str) -> list[ConfigCell]:
        """The configuration axis applying to ``workload``.

        Dataset names are case-insensitive everywhere else (the workload
        registry lowercases), so the per-workload grid lookup is too.  A
        workload the per-workload grid does not name is an error rather
        than a silent default configuration.
        """
        if isinstance(self.config_grid, dict):
            by_name = {name.lower(): cells for name, cells in self.config_grid.items()}
            if workload.lower() not in by_name:
                raise ValueError(f"config_grid has no entry for workload {workload!r}")
            return by_name[workload.lower()]
        return self.config_grid

    # ------------------------------------------------------------------
    # JSON
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        if isinstance(self.config_grid, dict):
            grid: object = {
                workload: [cell.to_json_dict() for cell in cells]
                for workload, cells in self.config_grid.items()
            }
        else:
            grid = [cell.to_json_dict() for cell in self.config_grid]
        payload = {
            "name": self.name,
            "description": self.description,
            "workloads": list(self.workloads),
            "cleaners": [cleaner.to_json_dict() for cleaner in self.cleaners],
            "error_rates": list(self.error_rates),
            "replacement_ratios": list(self.replacement_ratios),
            "config_grid": grid,
            "tuples": self.tuples,
            "seed": self.seed,
            "error_seed": self.error_seed,
            "store_reports": self.store_reports,
        }
        if self.detector_stacks != [None]:
            # the no-detection default stays implicit so pre-detection spec
            # files round-trip bit-identically
            payload["detector_stacks"] = [
                None if stack is None else list(stack)
                for stack in self.detector_stacks
            ]
        return payload

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentSpec":
        _check_keys(cls, data, "experiment spec")
        empty = [axis for axis in _AXES if axis in data and not data[axis]]
        if empty:
            # an empty axis would otherwise run a default or an empty grid
            raise ValueError(f"empty experiment spec axis: {', '.join(map(repr, empty))}")
        raw_grid = data.get("config_grid", [{}])
        if isinstance(raw_grid, dict):
            if not all(raw_grid.values()):
                raise ValueError("empty experiment spec axis: 'config_grid'")
            grid: ConfigGrid = {
                workload: [ConfigCell.from_json_dict(cell) for cell in cells]
                for workload, cells in raw_grid.items()
            }
        else:
            grid = [ConfigCell.from_json_dict(cell) for cell in raw_grid]
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            workloads=list(data.get("workloads", [])),
            cleaners=[
                CleanerSpec.from_json_dict(cleaner)
                for cleaner in data.get("cleaners", [{}])
            ],
            error_rates=list(data.get("error_rates", [0.05])),
            replacement_ratios=list(data.get("replacement_ratios", [0.5])),
            config_grid=grid,
            detector_stacks=[
                None if stack is None else list(stack)
                for stack in data.get("detector_stacks", [None])
            ],
            tuples=data.get("tuples"),
            seed=int(data.get("seed", 7)),
            error_seed=int(data.get("error_seed", 42)),
            store_reports=bool(data.get("store_reports", True)),
        )

    def override(self, **overrides) -> "ExperimentSpec":
        """This spec with fields replaced, given in the spec file's JSON names.

        The result goes through :meth:`from_json_dict`, so an override is
        decoded and checked exactly like a spec file: an unknown key or an
        empty axis raises :class:`ValueError`.
        """
        return ExperimentSpec.from_json_dict({**self.to_json_dict(), **overrides})

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_json_dict(json.loads(text))


def available_specs() -> list[str]:
    """Names of the checked-in experiment specs."""
    if not SPEC_DIR.is_dir():
        return []
    return sorted(path.stem for path in SPEC_DIR.glob("*.json"))


def load_spec(ref: Union[str, Path, ExperimentSpec]) -> ExperimentSpec:
    """Load a spec by checked-in name, file path, or pass one through."""
    if isinstance(ref, ExperimentSpec):
        return ref
    path = Path(ref)
    if not (path.suffix == ".json" or path.is_file()):
        path = SPEC_DIR / f"{ref}.json"
    if not path.is_file():
        raise KeyError(unknown_name("experiment spec", str(ref), available_specs()))
    return ExperimentSpec.from_json(path.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# the artifact: what one run produces
# ----------------------------------------------------------------------
@dataclass
class CellResult:
    """One grid cell: where it sits, what it measured, the full report."""

    #: grid coordinates (workload, error_rate, replacement_ratio, config,
    #: cleaner, system label)
    coords: dict
    #: headline metrics, rounded the way the paper's tables print them
    metrics: dict
    #: perf counters of the cell (wall-clock + distance-engine deltas)
    perf: dict = field(default_factory=dict)
    #: the unified report (None when the spec disables report storage)
    report: Optional[CleaningReport] = None

    def to_json_dict(self) -> dict:
        return {
            "coords": dict(self.coords),
            "metrics": dict(self.metrics),
            "perf": dict(self.perf),
            "report": self.report.to_json_dict() if self.report is not None else None,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CellResult":
        stored = data.get("report")
        return cls(
            coords=dict(data["coords"]),
            metrics=dict(data["metrics"]),
            perf=dict(data.get("perf") or {}),
            report=CleaningReport.from_json_dict(stored) if stored is not None else None,
        )


@dataclass
class RunArtifact:
    """The durable outcome of running one spec: spec + cells, JSON-lossless.

    ``from_json(artifact.to_json())`` reproduces an artifact that serializes
    to the same JSON again, bit for bit — so artifacts can be archived,
    diffed run-over-run, and re-rendered into identical figures without
    re-running anything.
    """

    spec: ExperimentSpec
    cells: list[CellResult] = field(default_factory=list)
    #: optional :meth:`repro.obs.MetricsRegistry.snapshot` taken after the
    #: run (cumulative process counters — observational, not a metric cell)
    metrics_snapshot: Optional[dict] = None

    def metric_keys(self) -> list[str]:
        """Sorted union of metric keys across all cells (the CI schema)."""
        keys: set[str] = set()
        for cell in self.cells:
            keys.update(cell.metrics)
        return sorted(keys)

    def to_json_dict(self) -> dict:
        payload = {
            "spec": self.spec.to_json_dict(),
            "cells": [cell.to_json_dict() for cell in self.cells],
        }
        if self.metrics_snapshot is not None:
            payload["metrics_snapshot"] = self.metrics_snapshot
        return payload

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunArtifact":
        return cls(
            spec=ExperimentSpec.from_json_dict(data["spec"]),
            cells=[CellResult.from_json_dict(cell) for cell in data["cells"]],
            metrics_snapshot=data.get("metrics_snapshot"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunArtifact":
        return cls.from_json_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunArtifact":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
class ExperimentRunner:
    """Expands a spec's grid through cleaning sessions into a RunArtifact."""

    def __init__(self, spec: Union[ExperimentSpec, str, Path]):
        self.spec = load_spec(spec)

    def run(self) -> RunArtifact:
        """Run every grid cell, in the fixed expansion order."""
        from repro.experiments.harness import prepare_instance

        spec = self.spec
        # every workload's grid is resolved before any cell runs
        grids = {workload: spec.grid_for(workload) for workload in spec.workloads}
        cells: list[CellResult] = []
        for workload in spec.workloads:
            grid = grids[workload]
            for error_rate in spec.error_rates:
                for ratio in spec.replacement_ratios:
                    instance = prepare_instance(
                        workload,
                        tuples=spec.tuples,
                        error_rate=error_rate,
                        replacement_ratio=ratio,
                        seed=spec.seed,
                        error_seed=spec.error_seed,
                    )
                    for config_cell in grid:
                        for cleaner_spec in spec.cleaners:
                            for detectors in spec.detector_stacks:
                                cells.append(
                                    self._run_cell(
                                        workload,
                                        error_rate,
                                        ratio,
                                        config_cell,
                                        cleaner_spec,
                                        instance,
                                        detectors,
                                    )
                                )
        from repro.obs import get_registry

        return RunArtifact(
            spec=spec, cells=cells, metrics_snapshot=get_registry().snapshot()
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _run_cell(
        self,
        workload: str,
        error_rate: float,
        ratio: float,
        config_cell: ConfigCell,
        cleaner_spec: CleanerSpec,
        instance,
        detectors=None,
    ) -> CellResult:
        config = recommended_config(workload)
        overrides = {**config_cell.overrides, **cleaner_spec.config}
        if overrides:
            config = replace(config, **overrides)
        if cleaner_spec.cleaner.lower() == "service":
            # registers the "service" cleaner; only its specs load the service
            import repro.service  # noqa: F401
        cleaner = get_cleaner(cleaner_spec.cleaner, **cleaner_spec.options)
        session = CleaningSession(
            rules=instance.rules,
            config=config,
            cleaner=cleaner,
            table=instance.dirty,
            ground_truth=instance.ground_truth,
            detectors=list(detectors) if detectors is not None else None,
        )
        stats_before = global_distance_stats()
        started = time.perf_counter()
        report = session.run()
        wall_seconds = time.perf_counter() - started
        delta = global_distance_stats().diff(stats_before)
        system = cleaner_spec.label or display_name(cleaner)
        coords = {
            "workload": workload,
            "error_rate": error_rate,
            "replacement_ratio": ratio,
            "config": config_cell.to_json_dict(),
            "cleaner": cleaner_spec.cleaner,
            "options": dict(cleaner_spec.options),
            "detectors": detector_specs_identity(detectors),
            "system": system,
        }
        perf = {
            "wall_seconds": round(wall_seconds, 4),
            "distance_calls": delta.calls,
            "raw_evaluations": delta.raw_evaluations,
            "qgram_candidates": delta.qgram_candidates,
            "qgram_filtered": delta.qgram_filtered,
            "cache_hit_rate": round(delta.hit_rate, 4),
            # per-stage wall-clock from the run's own TimingBreakdown, so
            # artifacts carry the stage split without re-deriving it
            "stages": {
                phase: round(seconds, 4)
                for phase, seconds in report.timings.as_dict().items()
            },
        }
        metrics = _cell_metrics(report, system, wall_seconds, cleaner)
        if detectors is not None:
            metrics.update(_detection_metrics(report, instance))
        return CellResult(
            coords=coords,
            metrics=metrics,
            perf=perf,
            report=report if self.spec.store_reports else None,
        )


def _cell_metrics(
    report: CleaningReport, system: str, wall_seconds: float, cleaner: Cleaner
) -> dict:
    """Headline metrics of one cell, matching the paper-table conventions.

    The layout mirrors what the pre-spec harness printed per run: system
    label, precision/recall/F1, wall-clock, then the component metrics when
    the stages were scored (:attr:`CleaningReport.stages_scored`), plus
    cleaner-specific extras (duplicates removed, detected cells, the
    distributed simulation's runtimes): every top-level number of
    ``report.details`` becomes a float metric rounded to 4 places.
    """
    accuracy = report.accuracy
    metrics: dict = {
        "system": system,
        "precision": round(accuracy.precision, 4) if accuracy else 0.0,
        "recall": round(accuracy.recall, 4) if accuracy else 0.0,
        "f1": round(accuracy.f1, 4) if accuracy else 0.0,
        "runtime_s": round(wall_seconds, 4),
    }
    if report.stages_scored:
        for key, value in report.component_accuracy.as_dict().items():
            metrics[key] = round(value, 4)
    # Cleaners that *route to* MLNClean (the service cleaner's default) get
    # the same metric layout, so equality checks compare like with like.
    routes_to_mlnclean = getattr(cleaner, "inner", None) == "mlnclean"
    if isinstance(cleaner, MLNCleanCleaner) or routes_to_mlnclean:
        metrics["duplicates_removed"] = float(
            report.dedup.removed_count if report.dedup is not None else 0
        )
    for key, value in report.details.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            metrics[key] = round(float(value), 4)
    return metrics


def _detection_metrics(report: CleaningReport, instance) -> dict:
    """Detector-quality metrics of a detection-enabled cell.

    Scores ``report.details["detection"]`` against the instance's
    injected-error ledger: detected-cell count, detection
    precision/recall/F1.  Cells whose cleaner carries no detection
    drill-down contribute nothing.
    """
    detection = report.details.get("detection")
    if detection is None:
        return {}
    detected = DirtyCells.from_json_dict(detection)
    metrics = {"detected_cells": float(detected.count)}
    if instance.ground_truth is not None:
        accuracy = detected.accuracy(
            instance.ground_truth.dirty_cells, instance.dirty
        )
        metrics["detect_precision"] = round(accuracy["precision"], 4)
        metrics["detect_recall"] = round(accuracy["recall"], 4)
        metrics["detect_f1"] = round(accuracy["f1"], 4)
    return metrics
