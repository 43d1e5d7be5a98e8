"""The HoloClean-style probabilistic repair baseline.

HoloClean (the paper's state-of-the-art comparator) repairs one cell at a
time: an external detector marks noisy cells, a statistical model is trained
on the clean partition, and every noisy cell is assigned its most probable
candidate value.  The paper runs it with a 100 %-accuracy detector so only
repair quality is compared; :class:`HoloCleanBaseline` defaults to the same
setting via :class:`~repro.detect.PerfectDetector` when a ground
truth is supplied.

Two properties of the original system — both discussed in Section 7.2 of the
paper — are deliberately preserved:

* the minimum repair unit is a single attribute value (MLNClean repairs a
  whole γ at once, which is one source of its speed advantage), and
* the model is trained only on the clean partition, so error types that never
  appear among clean values (typos) are harder to fix than replacement
  errors, especially on sparse data such as CAR.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

from repro.detect.base import Detector
from repro.detect.builtin import PerfectDetector, ViolationDetector
from repro.baselines.factor_graph import CellFactorGraph
from repro.constraints.rules import Rule
from repro.core.report import CleaningReport
from repro.dataset.table import Table
from repro.errors.groundtruth import GroundTruth
from repro.metrics.accuracy import evaluate_repair
from repro.metrics.timing import TimingBreakdown


@dataclass
class HoloCleanConfig:
    """Tunable parameters of the baseline."""

    #: maximum number of repair candidates per noisy cell after pruning
    max_candidates: int = 20
    #: SGD epochs for feature-weight training
    training_epochs: int = 10
    #: number of clean cells sampled as training examples
    training_sample: int = 2000
    #: SGD learning rate
    learning_rate: float = 0.5
    #: random seed (sampling of training cells, SGD shuffling)
    seed: int = 11

    def __post_init__(self) -> None:
        if self.training_epochs < 0:
            raise ValueError("training_epochs must be >= 0")


class HoloCleanBaseline:
    """Detect-then-repair probabilistic cleaning, one cell at a time.

    ``name`` labels the report's ``backend`` and the repaired table; the
    untrained variant (``training_epochs=0``) runs as ``"factor-graph"``.
    """

    def __init__(self, config: Optional[HoloCleanConfig] = None, name: str = "holoclean"):
        self.config = config or HoloCleanConfig()
        self.name = name

    def clean(
        self,
        dirty: Table,
        rules: Sequence[Rule],
        ground_truth: Optional[GroundTruth] = None,
        detector: Optional[Detector] = None,
    ) -> CleaningReport:
        """Run detection, training and repair on ``dirty``.

        When ``detector`` is omitted, a :class:`PerfectDetector` is used if a
        ground truth is available (the paper's comparison setting) and a
        :class:`ViolationDetector` otherwise.  HoloClean neither deduplicates
        nor removes tuples, so ``cleaned`` is the repaired table itself;
        ``details["detected_cells"]`` counts the cells detection marked and
        ``details["weights"]`` holds the graph's feature weights (empty when
        nothing was detected).
        """
        timings = TimingBreakdown()
        if detector is None:
            detector = (
                PerfectDetector(ground_truth)
                if ground_truth is not None
                else ViolationDetector()
            )

        with timings.time("detect"):
            noisy_cells = detector.detect(dirty, rules)

        repaired = dirty.copy(name=f"{dirty.name}-{self.name.replace('-', '')}")
        weights: list[float] = []
        if noisy_cells:
            with timings.time("compile"):
                graph = CellFactorGraph(
                    dirty,
                    rules,
                    noisy_cells,
                    max_candidates=self.config.max_candidates,
                    seed=self.config.seed,
                )
            if self.config.training_epochs:
                with timings.time("train"):
                    graph.train(
                        graph.training_examples(self.config.training_sample),
                        epochs=self.config.training_epochs,
                        learning_rate=self.config.learning_rate,
                    )
            with timings.time("repair"):
                for cell in sorted(noisy_cells, key=lambda c: (c.tid, c.attribute)):
                    best = graph.map_repair(cell)
                    if best.value != dirty.cell_value(cell):
                        repaired.set_cell(cell, best.value)
            weights = list(graph.weights)

        return CleaningReport(
            dirty=dirty,
            repaired=repaired,
            cleaned=repaired,
            timings=timings,
            accuracy=(
                evaluate_repair(dirty, repaired, ground_truth)
                if ground_truth is not None
                else None
            ),
            backend=self.name,
            details={"detected_cells": len(noisy_cells), "weights": weights},
        )
