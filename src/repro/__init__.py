"""MLNClean reproduction: a hybrid data cleaning framework on Markov logic networks.

The package reproduces "A Hybrid Data Cleaning Framework Using Markov Logic
Networks" (Gao et al., ICDE 2021 / arXiv:1903.05826) and grows it toward a
production-style system.  The recommended entry point is the unified session
API — one facade over every execution mode::

    from repro import CleaningSession, MLNCleanCleaner, MLNCleanConfig

    session = CleaningSession(
        config=MLNCleanConfig(abnormal_threshold=1),
        cleaner=MLNCleanCleaner("batch"),  # or "distributed" / "streaming"
    )
    session.load_rules("CT -> ST", "HN, PN -> CT")
    session.load_table(dirty_rows)    # Table, dict rows, or a CSV path
    report = session.run()
    print(report.describe())

Every backend and cleaner returns the same
:class:`~repro.core.report.CleaningReport` (cleaned table, per-stage
timings, accuracy when a ground truth is attached); new cleaning algorithms
plug in through :func:`~repro.session.register_cleaner`.  The pipeline
itself runs the paper's fixed Algorithm-1 order.
The pre-session entry points (``MLNClean``, ``DistributedMLNClean``,
``StreamingMLNClean``) remain available as thin paths onto the same engines.

Sub-packages:

* :mod:`repro.session` — the :class:`CleaningSession` facade and the
  cleaner registry (MLNClean on its three engines, and the baselines),
* :mod:`repro.core` — the MLNClean pipeline (MLN index, AGP, RSC, FSCR),
* :mod:`repro.constraints` — FD / CFD / DC rules and the rule parser,
* :mod:`repro.mln` — the MLN weight learner (the grounding is the MLN index
  of :mod:`repro.core`),
* :mod:`repro.dataset`, :mod:`repro.distance`, :mod:`repro.errors`,
  :mod:`repro.metrics` — supporting substrates,
* :mod:`repro.baselines` — the comparison baselines (HoloClean-style,
  minimality, untrained factor graph), all registered cleaners,
* :mod:`repro.distributed` — the partitioned (Spark-style) MLNClean,
* :mod:`repro.streaming` — incremental MLNClean over micro-batches of
  tuple deltas (continuously arriving data),
* :mod:`repro.service` — the concurrent, sharded cleaning service: a
  bounded asyncio job queue, warm per-(workload, cleaner, config) session
  shards, micro-batch coalescing onto the streaming engine, and a
  stdlib-only HTTP front end (``python -m repro.service serve``),
* :mod:`repro.workloads` — HAI / CAR / TPC-H synthetic workload generators
  and the workload registry (names, sizes, recommended configs),
* :mod:`repro.experiments` — declarative experiments: checked-in
  :class:`~repro.experiments.ExperimentSpec` grids, the
  :class:`~repro.experiments.ExperimentRunner`, JSON-lossless
  :class:`~repro.experiments.RunArtifact` results, and one thin renderer
  per figure/table of the paper, run by id with
  :func:`~repro.experiments.run_experiment`.
"""

from repro.core.config import MLNCleanConfig
from repro.core.pipeline import MLNClean
from repro.core.report import CleaningReport
from repro.constraints.parser import parse_rule, parse_rules
from repro.dataset.table import Cell, Row, Table
from repro.errors.injector import ErrorInjector, ErrorSpec
from repro.metrics.accuracy import evaluate_repair
from repro.session import (
    Cleaner,
    CleaningSession,
    MLNCleanCleaner,
    available_cleaners,
    get_cleaner,
    load_rules,
    load_table,
    register_cleaner,
)
from repro.distributed import DistributedMLNClean
from repro.perf import DistanceEngine, DistanceStats
from repro.streaming import (
    Delete,
    DeltaBatch,
    Insert,
    SlidingWindow,
    StreamingMLNClean,
    TumblingWindow,
    Update,
    WorkloadStreamSource,
)

__version__ = "19.1.0"

__all__ = [
    "CleaningSession",
    "Cleaner",
    "MLNCleanCleaner",
    "load_table",
    "load_rules",
    "register_cleaner",
    "available_cleaners",
    "get_cleaner",
    "MLNClean",
    "MLNCleanConfig",
    "CleaningReport",
    "parse_rule",
    "parse_rules",
    "Table",
    "Row",
    "Cell",
    "ErrorInjector",
    "ErrorSpec",
    "evaluate_repair",
    "DistributedMLNClean",
    "DistanceEngine",
    "DistanceStats",
    "StreamingMLNClean",
    "DeltaBatch",
    "Insert",
    "Update",
    "Delete",
    "TumblingWindow",
    "SlidingWindow",
    "WorkloadStreamSource",
    "__version__",
]
