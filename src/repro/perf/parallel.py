"""Process-parallel Stage I for the batch backend (opt-in ``parallelism=N``).

Stage I is embarrassingly parallel: AGP merges groups *within* one block and
RSC's weight learning normalises by the block's own support (the Eq.-4
prior), so no block ever reads another block's state.  This module fans the
blocks of one cleaning run out to worker processes, each running AGP followed
by RSC on its block with its own :class:`~repro.perf.DistanceEngine`, and
merges the mutated blocks and their outcomes back **in block order** through
the distributed driver's :func:`~repro.distributed.driver.merge_stage_outcomes`
— so the merged ``StageCounts``, merge/repair listings and the downstream
FSCR input are bit-identical to a serial run (caching never changes a
distance, and blocks are independent, so only wall-clock changes).

Worker engines cannot share a cache across process boundaries; their
counters are shipped back with the results and folded into the driver
engine, keeping the run's reported distance statistics complete.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Optional

from repro.core.agp import AbnormalGroupProcessor, AGPOutcome
from repro.core.config import MLNCleanConfig
from repro.core.index import Block
from repro.core.rsc import ReliabilityScoreCleaner, RSCOutcome
from repro.obs import span
from repro.perf.engine import DistanceEngine, DistanceStats

#: tid → attribute → clean value; the picklable stand-in for the
#: ``clean_lookup`` closure of instrumented runs
CleanValues = dict[int, dict[str, str]]


@dataclass
class BlockStageResult:
    """One block after Stage I, with its outcomes and engine counters."""

    block: Block
    agp: AGPOutcome
    rsc: RSCOutcome
    stats: DistanceStats


def _clean_block_with_engine(
    block: Block,
    config: MLNCleanConfig,
    clean_values: Optional[CleanValues],
    engine: DistanceEngine,
    own_stats: bool,
) -> BlockStageResult:
    """AGP then RSC on one block through ``engine``.

    ``own_stats=True`` means the engine belongs to this task alone (worker
    process) and its counters must travel back with the result; with a
    shared in-process engine the counters are already where they belong, so
    an empty stats object is returned to keep the later fold from double
    counting.
    """
    lookup = None
    if clean_values is not None:
        lookup = clean_values.__getitem__
    agp = AbnormalGroupProcessor(config, engine=engine)
    agp_outcome = agp.process_block(block, lookup)
    rsc = ReliabilityScoreCleaner(config, engine=engine)
    rsc_outcome = rsc.clean_block(block, lookup)
    stats = engine.stats if own_stats else DistanceStats()
    return BlockStageResult(block, agp_outcome, rsc_outcome, stats)


def _clean_one_block(
    payload: "tuple[Block, MLNCleanConfig, Optional[CleanValues]]",
) -> BlockStageResult:
    """Worker entry point: one block with its own engine (module-level for pickling)."""
    block, config, clean_values = payload
    engine = DistanceEngine.from_config(config)
    return _clean_block_with_engine(block, config, clean_values, engine, own_stats=True)


def clean_blocks_parallel(
    blocks: "list[Block]",
    config: MLNCleanConfig,
    clean_values: Optional[CleanValues],
    parallelism: int,
    engine: Optional[DistanceEngine] = None,
) -> "tuple[list[BlockStageResult], bool]":
    """Run Stage I on every block across ``parallelism`` worker processes.

    Returns ``(results, pooled)``: the results come back in input block order
    (``Pool.map`` preserves order), which is exactly the order the serial
    stages iterate, so downstream merges are deterministic; ``pooled`` tells
    whether worker processes actually ran (counters of in-process work have
    already reached the process-global stats).  With one block, one worker,
    or no usable process pool, the work degrades gracefully to in-process
    execution through the caller's shared ``engine`` — same results, same
    cross-block cache a serial run enjoys.
    """
    def run_in_process() -> "list[BlockStageResult]":
        shared = engine if engine is not None else DistanceEngine.from_config(config)
        return [
            _clean_block_with_engine(block, config, clean_values, shared, own_stats=False)
            for block in blocks
        ]

    workers = min(parallelism, len(blocks))
    if workers <= 1 or len(blocks) <= 1:
        return run_in_process(), False
    payloads = [(block, config, clean_values) for block in blocks]
    try:
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        with context.Pool(processes=workers) as pool:
            return pool.map(_clean_one_block, payloads), True
    except (OSError, ValueError):  # pragma: no cover - constrained sandboxes
        return run_in_process(), False


class ParallelStageOne:
    """The fused ``agp`` + ``rsc`` stage of a ``parallelism=N`` batch run.

    Registers its outcomes under the standard ``"agp"`` / ``"rsc"`` names so
    reports are indistinguishable from a serial run's; the wall-clock of both
    sub-stages lands in one ``stage1`` timing phase (they execute interleaved
    per block inside the workers and cannot be attributed separately).
    """

    name = "stage1"

    def __init__(self, config: MLNCleanConfig, parallelism: int):
        self.config = config
        self.parallelism = parallelism

    def run(self, context) -> None:
        clean_values: Optional[CleanValues] = None
        if context.clean_lookup is not None:
            clean_values = {
                tid: context.clean_lookup(tid) for tid in context.dirty.tids
            }
        # One driver-side span for the whole fan-out.  Fork-pool workers run
        # without a tracer (contextvars do not survive the fork, and spans
        # could not be shipped back affordably); the driver span records the
        # fan-out shape instead.
        with span(
            "stage1.parallel",
            blocks=len(context.blocks),
            parallelism=self.parallelism,
        ) as fan_span:
            results, pooled = clean_blocks_parallel(
                context.blocks,
                self.config,
                clean_values,
                self.parallelism,
                engine=context.engine,
            )
            fan_span.set(pooled=pooled)
        # Workers mutated pickled copies; adopt them in block order.
        context.blocks = [result.block for result in results]
        from repro.distributed.driver import merge_stage_outcomes

        agp_total, rsc_total = merge_stage_outcomes(
            (result.agp for result in results),
            (result.rsc for result in results),
        )
        context.outcomes["agp"] = agp_total
        context.outcomes["rsc"] = rsc_total
        if context.engine is not None:
            for result in results:
                context.engine.absorb_stats(result.stats)
