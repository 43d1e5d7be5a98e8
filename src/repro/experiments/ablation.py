"""Ablation studies of the departures from the paper listed in ROADMAP.md's
fidelity item (item 2).

These go beyond the paper's own evaluation:

* ``ablation_rscore`` — what happens when the reliability score drops its
  distance factor (weight-only) or its weight factor (distance-only, i.e.
  pure minimality),
* ``ablation_fscr`` — the fusion score with and without the minimality
  factor this reproduction adds,
* ``ablation_partition`` — Algorithm-3 partitioning vs naive round-robin
  partitioning for the distributed runner.

Each ablation is a checked-in spec over registered cleaners: the score
variants are the ``"rscore-ablation"`` cleaner (one per ``variant`` option)
and the partitioner ablation pits the stock distributed backend against the
``"roundrobin-distributed"`` cleaner.  Registering experiment-specific
cleaners is the intended extension path — a new ablation is a
:func:`~repro.session.register_cleaner` call plus a spec, not a new loop.
"""

from __future__ import annotations

from repro.core.config import MLNCleanConfig
from repro.core.index import MLNIndex
from repro.core.agp import AbnormalGroupProcessor
from repro.core.report import CleaningReport
from repro.core.rsc import ReliabilityScoreCleaner
from repro.distributed.driver import DistributedMLNClean
from repro.distributed.partition import DataPartitioner, hash_partition
from repro.experiments.harness import ExperimentResult
from repro.experiments.spec import RunArtifact
from repro.metrics.component import ComponentAccuracy, score_stages
from repro.session import register_cleaner
from repro.session.cleaners import CleaningRequest


# ----------------------------------------------------------------------
# variant cleaners
# ----------------------------------------------------------------------
class RScoreAblationCleaner:
    """Stage-I-only runs scoring γs by a degenerate reliability score.

    The pipeline is kept identical up to RSC except for how the winning γ of
    each group is chosen: by the full r-score (``variant="full"``), by
    weight alone (``"weight_only"``, pure statistics) or by support×distance
    alone (``"distance_only"``, pure minimality).  The cleaner reports the
    Stage-I RSC precision/recall as numeric ``details`` so the experiment
    runner surfaces them as cell metrics.
    """

    name = "rscore-ablation"

    def __init__(self, variant: str = "full"):
        if variant not in ("full", "weight_only", "distance_only"):
            raise ValueError(f"unknown reliability-score variant {variant!r}")
        self.variant = variant

    def run(self, request: CleaningRequest) -> CleaningReport:
        if request.ground_truth is None:
            raise ValueError(
                "the rscore-ablation cleaner measures RSC accuracy and "
                "therefore needs a ground truth"
            )
        index = MLNIndex.build(request.dirty, request.rules)
        AbnormalGroupProcessor(request.config).process_index(index.block_list)
        cleaner = _variant_cleaner(request.config, self.variant)
        outcome = cleaner.clean_index(index.block_list)
        score_stages(request.dirty, request.ground_truth, index.block_list, rsc=outcome)
        accuracy = ComponentAccuracy(outcome.counts)
        # Stage-I only: no repaired table is derived, so the report carries
        # the dirty table and the measured scores ride in `details`
        return CleaningReport(
            dirty=request.dirty,
            repaired=request.dirty,
            cleaned=request.dirty,
            rsc=outcome,
            backend=self.name,
            details={
                "variant": self.variant,
                "precision_r": round(accuracy.precision_r, 4),
                "recall_r": round(accuracy.recall_r, 4),
            },
        )


def _variant_cleaner(config: MLNCleanConfig, variant: str) -> ReliabilityScoreCleaner:
    """A cleaner whose reliability score ignores one of its two factors."""
    cleaner = ReliabilityScoreCleaner(config)
    if variant == "full":
        return cleaner

    if variant == "weight_only":

        def weight_only(group):
            return {piece: float(piece.weight) for piece in group.gammas}

        cleaner.reliability_scores = weight_only  # type: ignore[method-assign]
    elif variant == "distance_only":
        # the cleaner's shared engine keeps the variant's distance calls
        # cached and pruned like the full score's
        engine = cleaner.engine

        def distance_only(group):
            gammas = group.gammas
            if len(gammas) < 2:
                return {piece: 1.0 for piece in gammas}
            neighbors = engine.pairwise([piece.values for piece in gammas])
            return {
                piece: piece.support * neighbors[index][1]
                for index, piece in enumerate(gammas)
            }

        cleaner.reliability_scores = distance_only  # type: ignore[method-assign]
    else:
        raise ValueError(f"unknown reliability-score variant {variant!r}")
    return cleaner


class _RoundRobinPartitioner(DataPartitioner):
    def partition(self, table):  # type: ignore[override]
        return hash_partition(table, self.parts)


class RoundRobinDistributedCleaner:
    """Distributed MLNClean with naive round-robin partitioning.

    The counterfactual for the Algorithm-3 partitioner: same driver, same
    workers, but tuples are dealt to parts round-robin instead of being
    co-located by rule-attribute similarity.
    """

    name = "roundrobin-distributed"

    def __init__(self, workers: int = 4):
        self.workers = workers

    def run(self, request: CleaningRequest) -> CleaningReport:
        driver = DistributedMLNClean(
            workers=self.workers,
            config=request.config,
            partitioner=_RoundRobinPartitioner(parts=self.workers),
        )
        return driver.clean(request.dirty, request.rules, request.ground_truth)


register_cleaner("rscore-ablation", RScoreAblationCleaner)
register_cleaner("roundrobin-distributed", RoundRobinDistributedCleaner)


# ----------------------------------------------------------------------
# the ablation renderers (one per checked-in spec)
# ----------------------------------------------------------------------
def render_ablation_fscr(artifact: RunArtifact) -> ExperimentResult:
    result = ExperimentResult(
        experiment="ablation_fscr",
        description="FSCR minimality factor ablation",
    )
    for cell in artifact.cells:
        result.add(
            {
                "dataset": cell.coords["workload"],
                "variant": cell.coords["config"]["label"],
                "f1": cell.metrics["f1"],
                "precision": cell.metrics["precision"],
                "recall": cell.metrics["recall"],
            }
        )
    return result


def render_ablation_rscore(artifact: RunArtifact) -> ExperimentResult:
    result = ExperimentResult(
        experiment="ablation_rscore",
        description="reliability-score factor ablation (RSC precision/recall)",
    )
    for cell in artifact.cells:
        result.add(
            {
                "dataset": cell.coords["workload"],
                "variant": cell.coords["system"],
                "precision_r": cell.metrics["precision_r"],
                "recall_r": cell.metrics["recall_r"],
            }
        )
    return result


def render_ablation_partition(artifact: RunArtifact) -> ExperimentResult:
    result = ExperimentResult(
        experiment="ablation_partition",
        description="distributed partitioning strategy ablation",
    )
    for cell in artifact.cells:
        result.add(
            {
                "dataset": cell.coords["workload"],
                "partitioner": cell.coords["system"],
                "workers": int(cell.metrics["workers"]),
                "f1": cell.metrics["f1"],
                "runtime_s": cell.metrics["sim_runtime_s"],
            }
        )
    return result

