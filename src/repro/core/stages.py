"""Pluggable pipeline stages (Stage I/II of the paper as registered units).

The pipeline of :class:`repro.core.pipeline.MLNClean` runs the stage
sequence AGP → RSC → FSCR → dedup.  This module factors each of those steps
into a :class:`Stage` that reads and mutates one shared
:class:`StageContext`, and keeps a registry mapping stage names to factories
so a session can reorder, disable, or extend the sequence::

    register_stage("my-normalizer", lambda config: MyNormalizer(config))
    session = CleaningSession.builder().with_stages(
        "agp", "my-normalizer", "rsc", "fscr", "dedup"
    )...

Stage contracts (what each built-in stage consumes and produces):

* ``agp``   — mutates ``context.blocks`` in place (group merges),
* ``rsc``   — mutates ``context.blocks`` in place (weights + γ repairs),
* ``fscr``  — reads ``context.blocks``, sets ``context.repaired``,
* ``dedup`` — reads ``context.repaired`` (errors when no earlier stage set
  it), sets ``context.cleaned`` and ``context.dedup``.

Every stage records its outcome under its name in ``context.outcomes``; the
pipeline assembles the typed report fields (``report.agp`` etc.) from there.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Protocol, runtime_checkable

from repro.constraints.rules import Rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.detect.base import DirtyCells
    from repro.detect.run import CleaningScope
from repro.core.agp import AbnormalGroupProcessor
from repro.core.config import MLNCleanConfig
from repro.core.dedup import DeduplicationResult, remove_duplicates
from repro.core.fscr import FSCROutcome, FusionScoreResolver
from repro.core.index import Block
from repro.core.rsc import ReliabilityScoreCleaner
from repro.dataset.table import Cell, Table
from repro.perf.engine import DistanceEngine
from repro.registry import Registry

#: tid → ground-truth clean values of that tuple (instrumentation only)
CleanLookup = Callable[[int], dict[str, str]]


@dataclass
class StageContext:
    """Shared mutable state the stages of one cleaning run pass along."""

    #: the input (dirty) table — stages must not mutate it
    dirty: Table
    #: the integrity constraints of the run
    rules: list[Rule]
    #: the pipeline configuration
    config: MLNCleanConfig
    #: the post-index per-rule blocks (Stage-I stages mutate them in place)
    blocks: list[Block] = field(default_factory=list)
    #: ground-truth lookup enabling the component instrumentation (optional)
    clean_lookup: Optional[CleanLookup] = None
    #: the injected dirty cells, for the FSCR instrumentation (optional)
    dirty_cells: Optional[set[Cell]] = None
    #: the repaired table (set by ``fscr``; every tuple still present)
    repaired: Optional[Table] = None
    #: the final table (set by ``dedup``; defaults to ``repaired``)
    cleaned: Optional[Table] = None
    #: the duplicate-elimination result (set by ``dedup``)
    dedup: Optional[DeduplicationResult] = None
    #: stage name → that stage's outcome object
    outcomes: dict[str, object] = field(default_factory=dict)
    #: the run-wide shared distance engine (set by the pipeline so AGP, RSC,
    #: FSCR and dedup share one cache; ``None`` keeps per-stage defaults)
    engine: Optional[DistanceEngine] = None
    #: the detection result of the run (``None`` when no detectors ran)
    detected: Optional["DirtyCells"] = None
    #: the dirty-cell scope; ``None`` means full-scope — either no detectors
    #: ran or the detection covered every cell (the exact-or-prune pivot:
    #: a ``None`` scope is exactly today's unscoped code path)
    scope: Optional["CleaningScope"] = None


@runtime_checkable
class Stage(Protocol):
    """One pluggable step of the cleaning pipeline."""

    #: registry name; doubles as the timing-phase label of the stage
    name: str

    def run(self, context: StageContext) -> None:
        """Execute the stage, reading and mutating ``context``."""
        ...  # pragma: no cover - protocol body


class AGPStage:
    """Stage I, part 1: abnormal group processing on every block.

    Under a dirty-cell scope, only the blocks containing detected cells are
    enumerated, and only the abnormal groups holding an affected tuple are
    merged — merging rewrites the reason-part values of a group's tuples,
    which a dirty-scoped run must not do to undetected tuples.
    """

    name = "agp"

    def __init__(self, config: MLNCleanConfig):
        self._processor = AbnormalGroupProcessor(config)

    def run(self, context: StageContext) -> None:
        if context.engine is not None:
            self._processor.engine = context.engine
        scope = context.scope
        blocks = context.blocks if scope is None else scope.select_blocks(context.blocks)
        context.outcomes[self.name] = self._processor.process_index(
            blocks,
            context.clean_lookup,
            group_filter=None if scope is None else scope.selects_group,
        )


class RSCStage:
    """Stage I, part 2: weight learning + reliability-score cleaning.

    Under a dirty-cell scope, only the selected blocks are cleaned and only
    the groups holding an affected tuple are resolved — those γs are the
    fusion inputs of the tuples Stage II will re-fuse; weight learning
    stays block-global either way (the Eq.-4 prior is a block sum).
    """

    name = "rsc"

    def __init__(self, config: MLNCleanConfig):
        self._cleaner = ReliabilityScoreCleaner(config)

    def run(self, context: StageContext) -> None:
        if context.engine is not None:
            self._cleaner.engine = context.engine
        scope = context.scope
        blocks = context.blocks if scope is None else scope.select_blocks(context.blocks)
        context.outcomes[self.name] = self._cleaner.clean_index(
            blocks,
            context.clean_lookup,
            group_filter=None if scope is None else scope.selects_group,
        )


class FSCRStage:
    """Stage II, part 1: fusion-score conflict resolution across versions.

    Under a dirty-cell scope, only the affected tuples (those with at least
    one detected cell) are re-fused, against the data versions of the
    selected blocks; every other tuple keeps its as-arrived row.
    """

    name = "fscr"

    def __init__(self, config: MLNCleanConfig):
        self._resolver = FusionScoreResolver(config)

    def run(self, context: StageContext) -> None:
        scope = context.scope
        if scope is None:
            outcome = self._resolver.resolve(
                context.dirty, context.blocks, context.clean_lookup, context.dirty_cells
            )
        else:
            outcome = self._resolve_scoped(context, scope)
        context.outcomes[self.name] = outcome
        context.repaired = outcome.repaired
        # A fresh repaired table invalidates anything derived from an older
        # one (e.g. a dedup a custom stage order ran earlier).
        context.cleaned = None
        context.dedup = None

    def _resolve_scoped(self, context: StageContext, scope) -> FSCROutcome:
        """Fuse only the affected tuples and patch them into a full copy."""
        repaired = context.dirty.copy(name=f"{context.dirty.name}-repaired")
        live = [tid for tid in context.dirty.tids if tid in scope.tids]
        if not live:
            return FSCROutcome(repaired=repaired)
        blocks = scope.select_blocks(context.blocks)
        subset = context.dirty.subset(live, name=context.dirty.name)
        outcome = self._resolver.resolve(
            subset, blocks, context.clean_lookup, context.dirty_cells
        )
        for tid in live:
            fused_row = outcome.repaired.row(tid).as_dict()
            for attribute, value in fused_row.items():
                repaired.set_value(tid, attribute, value)
        outcome.repaired = repaired
        return outcome


class DedupStage:
    """Stage II, part 2: exact-duplicate elimination on the repaired table.

    Requires a repaired table, i.e. an earlier stage (normally ``fscr``)
    must have set ``context.repaired``.  Running dedup before fusion would
    silently emit a stale deduplication of the *dirty* table as the final
    result, so that ordering is rejected loudly instead.
    """

    name = "dedup"

    def __init__(self, config: MLNCleanConfig):
        self.config = config

    def run(self, context: StageContext) -> None:
        if context.repaired is None:
            raise ValueError(
                "the dedup stage needs a repaired table: order it after a "
                "stage that produces one (normally fscr)"
            )
        result = remove_duplicates(context.repaired, context.engine)
        context.outcomes[self.name] = result
        context.dedup = result
        context.cleaned = result.deduplicated


#: stage name → factory building a fresh stage for one configuration
StageFactory = Callable[[MLNCleanConfig], Stage]

_STAGES: Registry[StageFactory] = Registry("stage")
for _name, _factory in (
    ("agp", AGPStage),
    ("rsc", RSCStage),
    ("fscr", FSCRStage),
    ("dedup", DedupStage),
):
    _STAGES.register(_name, _factory)

#: the paper's stage order (Algorithm 1): Stage I then Stage II
DEFAULT_STAGES: tuple[str, ...] = ("agp", "rsc", "fscr", "dedup")


def register_stage(name: str, factory: StageFactory) -> None:
    """Register a stage factory under ``name`` (case-insensitive).

    Mirrors :func:`repro.workloads.register_workload`: re-registering the
    same factory is a no-op, rebinding a name to a different factory is an
    error.
    """
    _STAGES.register(name, factory)


def available_stages() -> list[str]:
    """All registered stage names, in registration order."""
    return _STAGES.names()


def get_stage(name: str, config: MLNCleanConfig) -> Stage:
    """Instantiate the stage registered under ``name`` for ``config``."""
    return _STAGES.get(name)(config)


def build_stages(
    names: Optional[Sequence[str]], config: MLNCleanConfig
) -> list[Stage]:
    """Instantiate a stage sequence.

    ``names=None`` yields the default Algorithm-1 order, honouring
    ``config.remove_duplicates`` (the dedup stage is dropped when the config
    disables duplicate elimination).  An explicit sequence is taken verbatim.
    """
    if names is None:
        names = [
            name
            for name in DEFAULT_STAGES
            if name != "dedup" or config.remove_duplicates
        ]
    return [get_stage(name, config) for name in names]
