"""The MLNClean pipeline (Algorithm 1 of the paper).

::

    dirty table + rules
        │  pre-processing: MLN index construction
        ▼
    blocks (one per rule) ──► Stage I per block: AGP, then RSC
        │                     (one clean data version per block)
        ▼
    Stage II: FSCR across the data versions, duplicate elimination
        │
        ▼
    clean table (+ report)

The order is fixed: AGP and RSC on every block, then FSCR, then duplicate
elimination when ``config.remove_duplicates`` is set.  A partial pipeline
(e.g. Stage I only) calls the stage classes directly, as
:mod:`repro.experiments.ablation` does.

The pipeline can run *instrumented*: when the caller supplies the ground
truth of the injected errors, the per-stage component metrics (Figures 8-14)
and the overall repair accuracy (Eq. 7) are derived after the run, from the
stage records (:func:`~repro.metrics.component.score_stages`) and the
repaired table (:func:`~repro.metrics.accuracy.evaluate_repair`).  The stages
never see the ground truth, so it cannot influence a cleaning decision.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

from repro.constraints.rules import Rule
from repro.core.agp import AbnormalGroupProcessor
from repro.core.config import MLNCleanConfig
from repro.core.dedup import remove_duplicates
from repro.core.fscr import FSCROutcome, FusionScoreResolver
from repro.core.index import Block, MLNIndex
from repro.core.report import CleaningReport
from repro.core.rsc import ReliabilityScoreCleaner
from repro.dataset.table import Table
from repro.detect.base import DirtyCells
from repro.detect.run import CleaningScope, detection_details, run_detection
from repro.errors.groundtruth import GroundTruth
from repro.metrics.accuracy import evaluate_repair
from repro.metrics.component import score_stages
from repro.metrics.timing import TimingBreakdown
from repro.obs import ensure_tracer, span, stage_scope


class MLNClean:
    """The hybrid data cleaning framework of the paper.

    Typical use::

        cleaner = MLNClean(MLNCleanConfig(abnormal_threshold=1))
        report = cleaner.clean(dirty_table, rules)
        clean_table = report.cleaned

    ``detectors`` is an optional error-detection stack (detector specs, see
    :mod:`repro.detect`) run before the index build.  The result scopes the
    run to the detected-dirty cells — Stage I only enumerates blocks
    containing detected cells, Stage II only re-fuses affected tuples —
    under the exact-or-prune contract: a detection covering every cell
    (e.g. the ``all-cells`` default detector) disables scoping, producing
    byte-identical output to a run without detectors.
    """

    def __init__(
        self,
        config: Optional[MLNCleanConfig] = None,
        *,
        detectors: Optional[Sequence] = None,
    ):
        self.config = config or MLNCleanConfig()
        self.detectors = list(detectors) if detectors is not None else None

    def clean(
        self,
        dirty: Table,
        rules: Sequence[Rule],
        ground_truth: Optional[GroundTruth] = None,
    ) -> CleaningReport:
        """Run the full two-stage cleaning process on ``dirty``.

        ``ground_truth`` (the injected-error ledger) switches on the
        instrumentation: overall accuracy and per-component metrics are
        attached to the returned report.
        """
        if not rules:
            raise ValueError("MLNClean needs at least one integrity constraint")
        config = self.config
        timings = TimingBreakdown()
        # One shared distance engine for the whole run: AGP and RSC read and
        # write the same cache, and its counters end up in
        # ``report.details["distance"]``.
        engine = config.engine()
        detected: Optional[DirtyCells] = None
        # ``None`` means full-scope: either no detectors ran or the detection
        # covered every cell, which is exactly the unscoped code path
        scope: Optional[CleaningScope] = None
        dedup = None
        with ensure_tracer(config.trace), span(
            "pipeline.clean",
            backend="batch",
            tuples=len(dirty),
            rules=len(rules),
        ):
            # The optional detection phase (before the index: detectors read
            # only the table and the rules).  Exact-or-prune: a detection
            # covering the whole table builds no scope, so the run below is
            # byte-identical to one without detectors.
            if self.detectors is not None:
                detected = run_detection(
                    dirty,
                    rules,
                    self.detectors,
                    ground_truth=ground_truth,
                    backend="batch",
                    timings=timings,
                )
                if not detected.covers(dirty):
                    scope = CleaningScope(detected, dirty)

            # Pre-processing: MLN index construction (lines 1-13 of Alg. 1).
            with stage_scope(timings, "batch", "index") as index_span:
                blocks = MLNIndex.build(dirty, rules).block_list
                index_span.set(blocks=len(blocks))

            # Stage I (lines 14-17).  Under a dirty-cell scope only the blocks
            # containing detected cells are enumerated, and only the groups
            # holding an affected tuple are merged (AGP rewrites the
            # reason-part values of a group's tuples) or resolved (their γs
            # are the fusion inputs Stage II re-fuses); weight learning stays
            # block-global either way (the Eq.-4 prior is a block sum).
            stage_blocks = blocks if scope is None else scope.select_blocks(blocks)
            group_filter = None if scope is None else scope.selects_group
            with stage_scope(timings, "batch", "agp"):
                agp = AbnormalGroupProcessor(config, engine=engine).process_index(
                    stage_blocks, group_filter=group_filter
                )
            with stage_scope(timings, "batch", "rsc"):
                rsc = ReliabilityScoreCleaner(config, engine=engine).clean_index(
                    stage_blocks, group_filter=group_filter
                )

            # Stage II (line 18): fusion, then duplicate elimination.
            with stage_scope(timings, "batch", "fscr"):
                resolver = FusionScoreResolver(config)
                if scope is None:
                    fscr = resolver.resolve(dirty, blocks)
                else:
                    fscr = _resolve_scoped(resolver, dirty, blocks, scope)
            repaired = fscr.repaired
            cleaned = repaired
            if config.remove_duplicates:
                with stage_scope(timings, "batch", "dedup"):
                    dedup = remove_duplicates(repaired)
                cleaned = dedup.deduplicated

        accuracy = None
        if ground_truth is not None:
            fused = None if scope is None else scope.tids
            score_stages(dirty, ground_truth, stage_blocks, agp, rsc, fscr, fused)
            accuracy = evaluate_repair(dirty, repaired, ground_truth)
        details: dict = {"distance": engine.stats.as_dict()}
        if detected is not None:
            details["detection"] = detection_details(detected, scope)

        return CleaningReport(
            dirty=dirty,
            repaired=repaired,
            cleaned=cleaned,
            timings=timings,
            agp=agp,
            rsc=rsc,
            fscr=fscr,
            dedup=dedup,
            accuracy=accuracy,
            backend="batch",
            details=details,
        )


def _resolve_scoped(
    resolver: FusionScoreResolver,
    dirty: Table,
    blocks: list[Block],
    scope: CleaningScope,
) -> FSCROutcome:
    """Fuse only the affected tuples and patch them into a full copy.

    Every tuple without a detected cell keeps its as-arrived row; the
    affected ones are fused against the data versions of the selected blocks,
    and only the cells a fusion changes are written.
    """
    repaired = dirty.copy(name=f"{dirty.name}-repaired")
    live = [tid for tid in dirty.tids if tid in scope.tids]
    if not live:
        return FSCROutcome(repaired=repaired)
    subset = dirty.subset(live, name=dirty.name)
    outcome = resolver.resolve(subset, scope.select_blocks(blocks))
    for tid, fusion in outcome.fusions.items():
        for attribute, value in fusion.assignment.items():
            if repaired.value(tid, attribute) != value:
                repaired.set_value(tid, attribute, value)
    outcome.repaired = repaired
    return outcome
