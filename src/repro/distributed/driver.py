"""The distributed MLNClean driver (Section 6 of the paper).

The pipeline mirrors the Spark deployment:

1. **Partition** the dirty table into ``k`` capacity-bounded parts
   (Algorithm 3).
2. **Worker phase 1 — learn**: each worker builds the MLN index of its part,
   runs AGP and learns the Markov weights of its local γs.
3. **Global weight fusion**: the driver combines the per-part weights with
   Eq. 6 so every γ has a single global weight.
4. **Worker phase 2 — clean**: each worker overwrites its local weights with
   the global ones, runs RSC and FSCR on its part and emits the repaired
   part.
5. **Gather**: the driver concatenates the repaired parts, eliminates
   duplicates globally and (optionally) evaluates accuracy against the
   ground truth.

Workers are simulated (run in-process); both the sequential total and the
parallel makespan are reported, which is what Figure 15 and Table 6 need.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Optional

from repro.constraints.rules import Rule
from repro.core.agp import AbnormalGroupProcessor, AGPOutcome
from repro.core.config import MLNCleanConfig
from repro.core.dedup import DeduplicationResult, remove_duplicates
from repro.core.fscr import FusionScoreResolver
from repro.core.index import Block, MLNIndex, check_rule_attributes
from repro.core.report import CleaningReport
from repro.core.rsc import ReliabilityScoreCleaner, RSCOutcome
from repro.dataset.table import Table
from repro.distributed.executor import SimulatedCluster
from repro.distributed.partition import DataPartitioner, PartitionResult
from repro.distributed.weights import GammaKey, GlobalWeightStore, fuse_weights
from repro.errors.groundtruth import GroundTruth
from repro.metrics.accuracy import RepairAccuracy, evaluate_repair
from repro.metrics.timing import TimingBreakdown
from repro.obs import ensure_tracer, span, stage_scope
from repro.perf.engine import DistanceEngine


def merge_stage_outcomes(
    agp_outcomes: Iterable[AGPOutcome],
    rsc_outcomes: Iterable[RSCOutcome],
) -> tuple[AGPOutcome, RSCOutcome]:
    """Deterministically fold per-worker Stage-I outcomes.

    The fold order is the iteration order of the inputs, which the driver
    keeps at partition order, so merged ``StageCounts``, merge lists and
    repair lists come out the same on every run.
    """
    agp_total = AGPOutcome()
    for outcome in agp_outcomes:
        agp_total.extend(outcome)
    rsc_total = RSCOutcome()
    for outcome in rsc_outcomes:
        rsc_total.extend(outcome)
    return agp_total, rsc_total


@dataclass
class _LearnPhaseOutput:
    """What worker phase 1 ships back to the driver."""

    part_index: int
    blocks: list[Block]
    local_weights: dict[GammaKey, tuple[int, float]]
    agp: AGPOutcome = field(default_factory=AGPOutcome)


@dataclass
class _CleanPhaseOutput:
    """What worker phase 2 ships back to the driver."""

    part_index: int
    blocks: list[Block]
    rsc: RSCOutcome = field(default_factory=RSCOutcome)


@dataclass
class DistributedReport:
    """The outcome of one distributed run."""

    dirty: Table
    repaired: Table
    cleaned: Table
    partition: PartitionResult
    workers: int
    driver_timings: TimingBreakdown = field(default_factory=TimingBreakdown)
    sequential_seconds: float = 0.0
    makespan_seconds: float = 0.0
    dedup: Optional[DeduplicationResult] = None
    accuracy: Optional[RepairAccuracy] = None
    #: merged Stage-I drill-down across all partitions (uninstrumented: the
    #: workers run without a ground truth, so the counts stay zero but the
    #: merge / repair listings are populated)
    agp: Optional[AGPOutcome] = None
    rsc: Optional[RSCOutcome] = None
    #: counters of the run's shared distance engine
    distance_stats: Optional[dict] = None

    @property
    def runtime(self) -> float:
        """Simulated parallel runtime: driver phases plus the worker makespan."""
        return self.driver_timings.total + self.makespan_seconds

    @property
    def sequential_runtime(self) -> float:
        """Single-machine runtime: driver phases plus all worker compute."""
        return self.driver_timings.total + self.sequential_seconds

    @property
    def speedup(self) -> float:
        """Sequential runtime over simulated parallel runtime."""
        if self.runtime == 0.0:
            return 1.0
        return self.sequential_runtime / self.runtime

    @property
    def f1(self) -> float:
        return self.accuracy.f1 if self.accuracy is not None else 0.0

    def as_dict(self) -> dict:
        """JSON-safe summary (how serialized reports carry this drill-down)."""
        return {
            "workers": self.workers,
            "partitions": self.partition.sizes,
            "runtime": self.runtime,
            "sequential_runtime": self.sequential_runtime,
            "speedup": self.speedup,
            "makespan_seconds": self.makespan_seconds,
            "sequential_seconds": self.sequential_seconds,
            "f1": self.f1,
            "distance_stats": dict(self.distance_stats)
            if self.distance_stats is not None
            else None,
        }

    def as_cleaning_report(self) -> "CleaningReport":
        """This run in the unified :class:`~repro.core.report.CleaningReport` shape.

        Driver phases keep their names; the simulated worker makespan is
        recorded as one ``workers`` phase so ``report.runtime`` equals the
        simulated parallel runtime.  The full distributed drill-down
        (partitioning, speedup, per-worker numbers) stays reachable through
        ``report.details``.
        """
        timings = TimingBreakdown(dict(self.driver_timings.phases))
        timings.record("workers", self.makespan_seconds)
        return CleaningReport(
            dirty=self.dirty,
            repaired=self.repaired,
            cleaned=self.cleaned,
            timings=timings,
            dedup=self.dedup,
            accuracy=self.accuracy,
            backend="distributed",
            details=self,
        )


class DistributedMLNClean:
    """Partitioned MLNClean over a simulated worker pool."""

    def __init__(
        self,
        workers: int = 4,
        config: Optional[MLNCleanConfig] = None,
        partitioner: Optional[DataPartitioner] = None,
    ):
        if workers < 1:
            raise ValueError("the distributed driver needs at least one worker")
        self.workers = workers
        self.config = config or MLNCleanConfig()
        #: when no partitioner is supplied, one is built per clean() call so
        #: it can restrict the tuple distance to the rule attributes (rows of
        #: the same entity then co-locate even in small partitions)
        self.partitioner = partitioner

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def clean(
        self,
        dirty: Table,
        rules: Sequence[Rule],
        ground_truth: Optional[GroundTruth] = None,
    ) -> DistributedReport:
        """Run the distributed pipeline on ``dirty``."""
        if not rules:
            raise ValueError("distributed MLNClean needs at least one rule")
        check_rule_attributes(rules, dirty.attributes)
        with ensure_tracer(self.config.trace), span(
            "driver.clean", workers=self.workers, tuples=len(dirty)
        ):
            return self._clean(dirty, rules, ground_truth)

    def _clean(
        self,
        dirty: Table,
        rules: Sequence[Rule],
        ground_truth: Optional[GroundTruth],
    ) -> DistributedReport:
        driver_timings = TimingBreakdown()
        cluster = SimulatedCluster(self.workers)
        # One engine for the whole run: the simulated workers execute
        # in-process, so partitioning, both worker phases and the gather step
        # share a single distance cache (value pairs recur across partitions).
        engine = self.config.engine()
        partitioner = self.partitioner or self._default_partitioner(
            dirty, rules, engine
        )

        with stage_scope(driver_timings, "distributed", "partition"):
            partition = partitioner.partition(dirty)
            part_tables = partition.tables(dirty)

        # The worker phases do not contribute to driver_timings: the report
        # accounts them through the cluster's makespan (one "workers" phase),
        # so adding them here would double-count the simulated runtime.  They
        # still get spans — one per phase, one per partition.
        with span("phase:learn", partitions=len(part_tables)):
            learn_results = cluster.map(
                "learn",
                lambda part: self._learn_phase(part[0], part[1], rules, engine),
                list(enumerate(part_tables)),
            )
        learn_outputs = [result.value for result in learn_results]

        with stage_scope(driver_timings, "distributed", "weight_fusion"):
            store = fuse_weights(output.local_weights for output in learn_outputs)

        with span("phase:clean", partitions=len(learn_outputs)):
            clean_results = cluster.map(
                "clean",
                lambda output: self._clean_phase(output, store, engine),
                learn_outputs,
            )
        clean_outputs = [result.value for result in clean_results]

        # Gather: the per-part data versions are combined and the conflicts
        # among them are eliminated "in the same way to stand-alone MLNClean"
        # (Section 6), i.e. FSCR runs over all blocks with a global candidate
        # pool, followed by global duplicate elimination.
        with stage_scope(driver_timings, "distributed", "gather"):
            all_blocks = [
                block for output in clean_outputs for block in output.blocks
            ]
            fscr = FusionScoreResolver(self.config)
            fscr_outcome = fscr.resolve(dirty, all_blocks)
            repaired = fscr_outcome.repaired
            repaired.name = f"{dirty.name}-distributed"
            dedup_result = None
            cleaned = repaired
            if self.config.remove_duplicates:
                dedup_result = remove_duplicates(repaired)
                cleaned = dedup_result.deduplicated
            agp_total, rsc_total = merge_stage_outcomes(
                (output.agp for output in learn_outputs),
                (output.rsc for output in clean_outputs),
            )

        accuracy = None
        if ground_truth is not None:
            accuracy = evaluate_repair(dirty, repaired, ground_truth)

        return DistributedReport(
            dirty=dirty,
            repaired=repaired,
            cleaned=cleaned,
            partition=partition,
            workers=self.workers,
            driver_timings=driver_timings,
            sequential_seconds=cluster.sequential_seconds,
            makespan_seconds=cluster.makespan_seconds,
            dedup=dedup_result,
            accuracy=accuracy,
            agp=agp_total,
            rsc=rsc_total,
            distance_stats=engine.stats.as_dict(),
        )

    def _default_partitioner(
        self,
        dirty: Table,
        rules: Sequence[Rule],
        engine: DistanceEngine,
    ) -> DataPartitioner:
        """Algorithm-3 partitioner measuring distance on the rule attributes.

        Restricting the distance to the attributes the rules constrain keeps
        tuples of the same real-world entity (same provider, same customer)
        together even when partitions are small, which is what the Spark
        deployment relies on for per-partition cleaning quality.
        """
        attributes = []
        for rule in rules:
            for attribute in rule.attributes:
                if attribute in dirty.schema and attribute not in attributes:
                    attributes.append(attribute)
        return DataPartitioner(
            parts=self.workers,
            engine=engine,
            sample_attributes=attributes or None,
        )

    # ------------------------------------------------------------------
    # worker phases
    # ------------------------------------------------------------------
    def _learn_phase(
        self,
        part_index: int,
        part: Table,
        rules: Sequence[Rule],
        engine: Optional[DistanceEngine] = None,
    ) -> _LearnPhaseOutput:
        """Index construction, AGP and local weight learning on one part.

        The AGP threshold τ is tuned against whole-dataset group sizes; inside
        a partition every group only holds ~1/k of its tuples, so τ is scaled
        down proportionally (never below 1) before the per-partition AGP runs.
        Without this adaptation a τ tuned for the full HAI dataset would
        declare most partition-level groups abnormal.
        """
        with span("worker.learn", partition=part_index, tuples=len(part)):
            index = MLNIndex.build(part, rules)
            partition_threshold = max(
                1, self.config.abnormal_threshold // self.workers
            )
            partition_config = self.config.with_threshold(partition_threshold)
            agp = AbnormalGroupProcessor(partition_config, engine=engine)
            agp_outcome = agp.process_index(index.block_list)
            rsc = ReliabilityScoreCleaner(self.config, engine=engine)
            local_weights: dict[GammaKey, tuple[int, float]] = {}
            for block in index.block_list:
                rsc.learn_block_weights(block)
                for piece in block.pieces:
                    key: GammaKey = (
                        block.name,
                        piece.reason_values,
                        piece.result_values,
                    )
                    support, weight = local_weights.get(key, (0, 0.0))
                    local_weights[key] = (support + piece.support, piece.weight)
            return _LearnPhaseOutput(
                part_index, index.block_list, local_weights, agp=agp_outcome
            )

    def _clean_phase(
        self,
        learn_output: _LearnPhaseOutput,
        store: GlobalWeightStore,
        engine: Optional[DistanceEngine] = None,
    ) -> _CleanPhaseOutput:
        """RSC with the Eq.-6 global weights on one part's blocks."""
        with span("worker.clean", partition=learn_output.part_index):
            blocks = learn_output.blocks
            for block in blocks:
                for piece in block.pieces:
                    key: GammaKey = (
                        block.name,
                        piece.reason_values,
                        piece.result_values,
                    )
                    piece.weight = store.weight(key)
            rsc = ReliabilityScoreCleaner(self.config, engine=engine)
            rsc_outcome = rsc.clean_index(blocks, relearn_weights=False)
            return _CleanPhaseOutput(
                learn_output.part_index, blocks, rsc=rsc_outcome
            )
