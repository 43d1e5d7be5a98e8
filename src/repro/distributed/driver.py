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

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

from repro.constraints.rules import Rule
from repro.core.agp import AbnormalGroupProcessor
from repro.core.config import MLNCleanConfig
from repro.core.dedup import remove_duplicates
from repro.core.fscr import FusionScoreResolver
from repro.core.index import Block, MLNIndex, check_rule_attributes
from repro.core.report import CleaningReport
from repro.core.rsc import ReliabilityScoreCleaner
from repro.dataset.table import Table
from repro.detect.run import detection_details, run_detection
from repro.distributed.executor import SimulatedCluster
from repro.distributed.partition import DataPartitioner
from repro.distributed.weights import GammaKey, GlobalWeightStore, fuse_weights
from repro.errors.groundtruth import GroundTruth
from repro.metrics.accuracy import evaluate_repair
from repro.metrics.timing import TimingBreakdown
from repro.obs import ensure_tracer, span, stage_scope
from repro.perf.engine import DistanceEngine


@dataclass
class _LearnPhaseOutput:
    """What worker phase 1 ships back to the driver."""

    part_index: int
    blocks: list[Block]
    local_weights: dict[GammaKey, tuple[int, float]]


@dataclass
class _CleanPhaseOutput:
    """What worker phase 2 ships back to the driver."""

    part_index: int
    blocks: list[Block]


class DistributedMLNClean:
    """Partitioned MLNClean over a simulated worker pool.

    ``detectors`` is an optional error-detection stack (detector specs, see
    :mod:`repro.detect`) run before partitioning, as in
    :class:`~repro.core.pipeline.MLNClean`.  The driver always cleans
    full-scope, so a detection that does not cover every cell raises a
    ``ValueError`` instead of being ignored; a covering one (``all-cells``)
    only adds its drill-down to ``report.details["detection"]``.
    """

    def __init__(
        self,
        workers: int = 4,
        config: Optional[MLNCleanConfig] = None,
        partitioner: Optional[DataPartitioner] = None,
        *,
        detectors: Optional[Sequence] = None,
    ):
        if workers < 1:
            raise ValueError("the distributed driver needs at least one worker")
        self.workers = workers
        self.config = config or MLNCleanConfig()
        self.detectors = list(detectors) if detectors is not None else None
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
    ) -> CleaningReport:
        """Run the distributed pipeline on ``dirty``.

        Driver phases keep their names in ``report.timings``; the simulated
        worker makespan is recorded as one ``workers`` phase, so
        ``report.runtime`` is the simulated parallel runtime.  ``details``
        holds ``workers``, the ``partitions`` sizes, ``sim_runtime_s``,
        ``sequential_s`` (driver phases plus all worker compute), their
        ``speedup``, the shared engine's ``distance`` counters and, with
        detectors, the ``detection`` drill-down (``scoped: false``).  The
        workers run uninstrumented, so ``agp`` and ``rsc`` stay ``None``.
        """
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
    ) -> CleaningReport:
        timings = TimingBreakdown()
        detected = None
        if self.detectors is not None:
            detected = run_detection(
                dirty,
                rules,
                self.detectors,
                ground_truth=ground_truth,
                backend="distributed",
                timings=timings,
            )
            if not detected.covers(dirty):
                raise ValueError(
                    "the distributed backend cleans full-scope; dirty-cell-"
                    "scoped detectors are batch/streaming-only (use the "
                    "'all-cells' detector to keep detection metrics without "
                    "scoping)"
                )
        cluster = SimulatedCluster(self.workers)
        # One engine for the whole run: the simulated workers execute
        # in-process, so partitioning, both worker phases and the gather step
        # share a single distance cache (value pairs recur across partitions).
        engine = self.config.engine()
        partitioner = self.partitioner or self._default_partitioner(
            dirty, rules, engine
        )

        with stage_scope(timings, "distributed", "partition"):
            partition = partitioner.partition(dirty)
            part_tables = partition.tables(dirty)

        # The worker phases do not get their own timings: the report accounts
        # them through the cluster's makespan (one "workers" phase), so
        # adding them here would double-count the simulated runtime.  They
        # still get spans — one per phase, one per partition.
        with span("phase:learn", partitions=len(part_tables)):
            learn_outputs = cluster.map(
                lambda part: self._learn_phase(part[0], part[1], rules, engine),
                list(enumerate(part_tables)),
            )

        with stage_scope(timings, "distributed", "weight_fusion"):
            store = fuse_weights(output.local_weights for output in learn_outputs)

        with span("phase:clean", partitions=len(learn_outputs)):
            clean_outputs = cluster.map(
                lambda output: self._clean_phase(output, store, engine),
                learn_outputs,
            )

        # Gather: the per-part data versions are combined and the conflicts
        # among them are eliminated "in the same way to stand-alone MLNClean"
        # (Section 6), i.e. FSCR runs over all blocks with a global candidate
        # pool, followed by global duplicate elimination.
        with stage_scope(timings, "distributed", "gather"):
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

        accuracy = None
        if ground_truth is not None:
            accuracy = evaluate_repair(dirty, repaired, ground_truth)

        sequential = timings.total + cluster.sequential_seconds
        timings.record("workers", cluster.makespan_seconds)
        runtime = timings.total
        details = {
            "workers": self.workers,
            "partitions": partition.sizes,
            "sim_runtime_s": runtime,
            "sequential_s": sequential,
            # rounded like the Figure 15 table prints it
            "speedup": round(sequential / runtime, 3) if runtime else 1.0,
            "distance": engine.stats.as_dict(),
        }
        if detected is not None:
            details["detection"] = detection_details(detected, None)
        return CleaningReport(
            dirty=dirty,
            repaired=repaired,
            cleaned=cleaned,
            timings=timings,
            dedup=dedup_result,
            accuracy=accuracy,
            backend="distributed",
            details=details,
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
            AbnormalGroupProcessor(partition_config, engine=engine).process_index(
                index.block_list
            )
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
            return _LearnPhaseOutput(part_index, index.block_list, local_weights)

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
            ReliabilityScoreCleaner(self.config, engine=engine).clean_index(
                blocks, relearn_weights=False
            )
            return _CleanPhaseOutput(learn_output.part_index, blocks)
