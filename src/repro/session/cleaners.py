"""Cleaning algorithms behind one protocol: the `Cleaner` registry.

Every cleaner — MLNClean itself and the comparison baselines the paper
evaluates against — implements the same contract: take a
:class:`CleaningRequest`, return the unified
:class:`~repro.core.report.CleaningReport`.  That makes the paper's
comparative experiments (MLNClean vs HoloClean vs qualitative repair) a pure
grid over registered names::

    session = CleaningSession(rules=rules, cleaner="holoclean")
    report = session.run(dirty)           # same CleaningReport as MLNClean

Built-in cleaners:

* ``"mlnclean"``       — the paper's pipeline on one of its three engines:
  batch (Algorithm 1), distributed (Section 6) or streaming replay
  (:class:`MLNCleanCleaner`'s ``backend`` argument picks it),
* ``"holoclean"``      — the HoloClean-style probabilistic baseline
  (:mod:`repro.baselines.holoclean`),
* ``"minimal-repair"`` — the qualitative majority-vote repairer
  (:mod:`repro.baselines.minimal_repair`),
* ``"factor-graph"``   — the HoloClean baseline with ``training_epochs=0``
  by default: per-cell MAP repair over the untrained factor graph, the
  no-training ablation.

Every baseline already returns a :class:`~repro.core.report.CleaningReport`,
so each adapter only maps the request onto the baseline's ``clean`` call and
returns that report unchanged.  New algorithms plug in through
:func:`register_cleaner`.
"""

from __future__ import annotations

import copy
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import Optional, Protocol, runtime_checkable

from repro.baselines.holoclean import HoloCleanBaseline, HoloCleanConfig
from repro.baselines.minimal_repair import MinimalityRepairer
from repro.constraints.rules import Rule
from repro.core.config import MLNCleanConfig
from repro.core.pipeline import MLNClean
from repro.core.report import CleaningReport
from repro.dataset.table import Table
from repro.distributed.driver import DistributedMLNClean
from repro.errors.groundtruth import GroundTruth
from repro.obs import observe_run, span
from repro.registry import Registry, unknown_name
from repro.streaming.cleaner import StreamingMLNClean
from repro.streaming.source import TableStreamSource


@dataclass
class CleaningRequest:
    """Everything a cleaner needs to execute one cleaning run."""

    #: the dirty input table
    dirty: Table
    #: the integrity constraints governing it
    rules: list[Rule]
    #: the pipeline configuration
    config: MLNCleanConfig = field(default_factory=MLNCleanConfig)
    #: injected-error ledger; switches on accuracy instrumentation
    ground_truth: Optional[GroundTruth] = None
    #: error-detector stack (specs, see :mod:`repro.detect`); ``None`` runs
    #: without a detection phase
    detectors: Optional[list] = None


@runtime_checkable
class Cleaner(Protocol):
    """The contract every cleaning algorithm implements."""

    #: registry name of the cleaner ("mlnclean", "holoclean", ...)
    name: str

    def run(self, request: CleaningRequest) -> CleaningReport:
        """Execute the request and return the unified report."""
        ...  # pragma: no cover - protocol body


#: MLNClean's execution backends and the options each takes, with defaults
BACKEND_OPTIONS: dict[str, dict] = {
    "batch": {},
    "distributed": {"workers": 4},
    "streaming": {"batch_size": 100, "window": None},
}


class MLNCleanCleaner:
    """The paper's pipeline, executed on one of its three engines.

    ``backend`` picks the engine, the options are that engine's own:

    * ``"batch"`` — :class:`~repro.core.pipeline.MLNClean`, Algorithm 1 in
      this process (no options),
    * ``"distributed"`` — :class:`~repro.distributed.DistributedMLNClean`,
      the partitioned pipeline of Section 6 on ``workers`` simulated workers,
    * ``"streaming"`` — the table replayed in ascending-tid insert
      micro-batches of ``batch_size`` tuples through
      :class:`~repro.streaming.StreamingMLNClean`, under an optional
      ``window`` policy.  The engine of the last :meth:`run` stays
      reachable as :attr:`engine`, so callers can keep feeding it deltas.

    This is the default cleaner of every session; pass one to pick another
    engine::

        CleaningSession(cleaner=MLNCleanCleaner("distributed", workers=4))
    """

    name = "mlnclean"

    def __init__(self, backend: str = "batch", **options):
        defaults = BACKEND_OPTIONS.get(backend.lower())
        if defaults is None:
            raise KeyError(unknown_name("backend", backend, list(BACKEND_OPTIONS)))
        #: the backend name ("batch", "distributed" or "streaming")
        self.backend = backend.lower()
        for option in options:
            if option not in defaults:
                raise TypeError(
                    f"the {self.backend} backend takes no {option!r} option "
                    f"(its options: {', '.join(defaults) or 'none'})"
                )
        #: the backend's options, defaults filled in
        self.options = {**defaults, **options}
        for option in ("workers", "batch_size"):
            if self.options.get(option, 1) < 1:
                raise ValueError(f"the {self.backend} backend needs {option} >= 1")
        #: the streaming engine of the most recent run (None otherwise)
        self.engine: Optional[StreamingMLNClean] = None

    def run(self, request: CleaningRequest) -> CleaningReport:
        if self.backend == "streaming":
            report = self._replay(request)
        elif self.backend == "distributed":
            workers = self.options["workers"]
            driver = DistributedMLNClean(
                workers=workers, config=request.config, detectors=request.detectors
            )
            with span("backend:distributed", workers=workers):
                report = driver.clean(request.dirty, request.rules, request.ground_truth)
        else:
            cleaner = MLNClean(request.config, detectors=request.detectors)
            with span("backend:batch"):
                report = cleaner.clean(request.dirty, request.rules, request.ground_truth)
        observe_run(self.backend)
        return report

    def _replay(self, request: CleaningRequest) -> CleaningReport:
        """Stream the dirty table through a fresh incremental engine."""
        batch_size = self.options["batch_size"]
        engine = StreamingMLNClean(
            request.rules,
            schema=request.dirty.attributes,
            config=request.config,
            # a window policy keeps the tids it has seen, so every replay
            # starts from an unused copy of the configured one
            window=copy.deepcopy(self.options["window"]),
            detectors=request.detectors,
        )
        source = TableStreamSource(request.dirty, batch_size, request.ground_truth)
        with span("backend:streaming", batch_size=batch_size) as backend_span:
            engine.consume(source)
            backend_span.set(ticks=engine.batches_applied)
        self.engine = engine
        return engine.report()


class HoloCleanCleaner:
    """The HoloClean-style baseline as a registered cleaner.

    Options are the :class:`~repro.baselines.holoclean.HoloCleanConfig`
    fields (``max_candidates``, ``training_epochs``, ...) plus an optional
    ``detector``.
    """

    name = "holoclean"

    def __init__(self, config: Optional[HoloCleanConfig] = None, detector=None, **overrides):
        if overrides:
            config = replace(config or HoloCleanConfig(), **overrides)
        self.baseline = HoloCleanBaseline(config)
        self.detector = detector

    def run(self, request: CleaningRequest) -> CleaningReport:
        return self.baseline.clean(
            request.dirty,
            request.rules,
            request.ground_truth,
            detector=_request_detector(request, self.detector, self.name),
        )


def _factor_graph_cleaner(detector=None, **overrides) -> HoloCleanCleaner:
    """The ``"factor-graph"`` cleaner: HoloClean without weight training.

    The ablation that separates HoloClean's model structure from its learned
    weights: every detected cell gets the candidate maximising the prior
    score (all feature weights at 1.0).  ``training_epochs`` defaults to 0;
    the other options are HoloClean's, except ``config``.
    """
    cleaner = HoloCleanCleaner(None, detector, **{"training_epochs": 0, **overrides})
    cleaner.name = cleaner.baseline.name = "factor-graph"
    return cleaner


class MinimalRepairCleaner:
    """The qualitative minimality-based repairer as a registered cleaner."""

    name = "minimal-repair"

    def __init__(self):
        self.repairer = MinimalityRepairer()

    def run(self, request: CleaningRequest) -> CleaningReport:
        if request.detectors is not None:
            raise ValueError(
                "the minimal-repair cleaner has no detection phase; "
                "detector stacks apply to the mlnclean, holoclean and "
                "factor-graph cleaners"
            )
        return self.repairer.clean(
            request.dirty, request.rules, request.ground_truth
        )


def _request_detector(request: CleaningRequest, own_detector, cleaner_name: str):
    """Fold a request's detector stack into a baseline's single detector.

    The HoloClean-style baselines take one detector object; a request stack
    collapses into a :class:`~repro.detect.builtin.UnionDetector`.  Setting
    both the cleaner's ``detector=`` option and the request's ``detectors``
    would silently shadow one of them, so that conflict raises instead.
    """
    if request.detectors is None:
        return own_detector
    if own_detector is not None:
        raise ValueError(
            f"the {cleaner_name} cleaner already has a detector= option; "
            f"drop it or drop the session's detector stack"
        )
    from repro.detect.builtin import UnionDetector
    from repro.detect.run import inject_ground_truth

    detector = UnionDetector(request.detectors)
    inject_ground_truth(detector, request.ground_truth)
    return detector


#: cleaner name → factory; factory options are cleaner-specific
CleanerFactory = Callable[..., Cleaner]

_CLEANERS: Registry[CleanerFactory] = Registry("cleaner")
for _name, _factory in (
    ("mlnclean", MLNCleanCleaner),
    ("holoclean", HoloCleanCleaner),
    ("minimal-repair", MinimalRepairCleaner),
    ("minimal_repair", MinimalRepairCleaner),
    ("factor-graph", _factor_graph_cleaner),
    ("factor_graph", _factor_graph_cleaner),
):
    _CLEANERS.register(_name, _factory)

#: cleaner name → display label used by the experiment tables
_DISPLAY_NAMES = {
    "mlnclean": "MLNClean",
    "holoclean": "HoloClean",
    "minimal-repair": "MinimalRepair",
    "factor-graph": "FactorGraph",
}


def register_cleaner(name: str, factory: CleanerFactory) -> None:
    """Register a cleaner factory under ``name`` (case-insensitive).

    Re-registering the same factory is a no-op, rebinding a name to a
    different factory is an error.
    """
    _CLEANERS.register(name, factory)


def available_cleaners() -> list[str]:
    """Canonical cleaner names, in registration order.

    Aliases pointing at an already-listed factory ("minimal_repair" for
    "minimal-repair") are collapsed onto the first name registered for it.
    """
    names: list[str] = []
    seen: set = set()
    for name, factory in _CLEANERS.items():
        if factory in seen:
            continue
        seen.add(factory)
        names.append(name)
    return names


def get_cleaner(name: str, **options) -> Cleaner:
    """Instantiate the cleaner registered under ``name``.

    Keyword options are forwarded to the cleaner factory (e.g.
    ``backend="distributed", workers=4`` for "mlnclean",
    ``training_epochs=5`` for "holoclean").
    """
    return _CLEANERS.get(name)(**options)


def display_name(cleaner: Cleaner) -> str:
    """The system label experiment tables use for a cleaner instance.

    MLNClean on a non-default backend is labelled ``MLNClean[<backend>]``,
    matching the paper's table conventions; unregistered cleaners fall back
    to their ``name``.
    """
    label = _DISPLAY_NAMES.get(cleaner.name.lower(), cleaner.name)
    backend = getattr(cleaner, "backend", None)
    if cleaner.name == "mlnclean" and backend is not None and backend != "batch":
        return f"{label}[{backend}]"
    return label
