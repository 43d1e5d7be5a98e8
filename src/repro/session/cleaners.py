"""Cleaning algorithms behind one protocol: the `Cleaner` registry.

A *backend* answers "where does MLNClean execute" (batch / distributed /
streaming); a *cleaner* answers "which algorithm repairs the data".  Every
cleaner — MLNClean itself and the comparison baselines the paper evaluates
against — implements the same contract: take a
:class:`~repro.session.backends.CleaningRequest`, return the unified
:class:`~repro.core.report.CleaningReport`.  That makes the paper's
comparative experiments (MLNClean vs HoloClean vs qualitative repair) a pure
grid over registered names::

    session = CleaningSession.builder().with_cleaner("holoclean").build()
    report = session.run(dirty)           # same CleaningReport as MLNClean

Built-in cleaners:

* ``"mlnclean"``       — the paper's pipeline, delegating to any registered
  execution backend (``with_backend(...)`` configures it),
* ``"holoclean"``      — the HoloClean-style probabilistic baseline
  (:mod:`repro.baselines.holoclean`),
* ``"minimal-repair"`` — the qualitative majority-vote repairer
  (:mod:`repro.baselines.minimal_repair`),
* ``"factor-graph"``   — per-cell MAP repair over the untrained factor
  graph (:mod:`repro.baselines.factor_graph`), the no-training ablation of
  the HoloClean baseline.

Every baseline already returns a :class:`~repro.core.report.CleaningReport`,
so each adapter only maps the request onto the baseline's ``clean`` call and
returns that report unchanged.  New algorithms plug in through
:func:`register_cleaner`, mirroring
:func:`~repro.session.backends.register_backend`.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Optional, Protocol, Union, runtime_checkable

from repro.baselines.factor_graph import FactorGraphRepairer
from repro.baselines.holoclean import HoloCleanBaseline, HoloCleanConfig
from repro.baselines.minimal_repair import MinimalityRepairer
from repro.core.report import CleaningReport
from repro.registry import Registry
from repro.session.backends import (
    CleaningRequest,
    ExecutionBackend,
    get_backend,
)


@runtime_checkable
class Cleaner(Protocol):
    """The contract every cleaning algorithm implements."""

    #: registry name of the cleaner ("mlnclean", "holoclean", ...)
    name: str

    def run(self, request: CleaningRequest) -> CleaningReport:
        """Execute the request and return the unified report."""
        ...  # pragma: no cover - protocol body


class MLNCleanCleaner:
    """The paper's pipeline, executed on any registered backend.

    This is the default cleaner of every session; ``with_backend(...)``
    configures which engine it delegates to.  Constructing it directly takes
    either a backend instance or a backend name plus its options::

        MLNCleanCleaner("distributed", workers=4)
    """

    name = "mlnclean"

    def __init__(
        self,
        backend: Union[ExecutionBackend, str] = "batch",
        **backend_options,
    ):
        if isinstance(backend, str):
            self.backend = get_backend(backend, **backend_options)
        else:
            if backend_options:
                raise ValueError(
                    "backend options only apply when the backend is given "
                    "by name"
                )
            self.backend = backend

    def run(self, request: CleaningRequest) -> CleaningReport:
        return self.backend.run(request)


class HoloCleanCleaner:
    """The HoloClean-style baseline as a registered cleaner.

    Options are the :class:`~repro.baselines.holoclean.HoloCleanConfig`
    fields (``max_candidates``, ``training_epochs``, ...) plus an optional
    ``detector``.
    """

    name = "holoclean"

    def __init__(self, config: Optional[HoloCleanConfig] = None, detector=None, **overrides):
        if overrides:
            from dataclasses import replace

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


class FactorGraphCleaner:
    """The untrained factor-graph repairer as a registered cleaner.

    Options are forwarded to
    :class:`~repro.baselines.factor_graph.FactorGraphRepairer`
    (``max_candidates``, ``seed``, ``training_epochs``) plus an optional
    ``detector``.
    """

    name = "factor-graph"

    def __init__(self, detector=None, **options):
        self.repairer = FactorGraphRepairer(**options)
        self.detector = detector

    def run(self, request: CleaningRequest) -> CleaningReport:
        return self.repairer.clean(
            request.dirty,
            request.rules,
            request.ground_truth,
            detector=_request_detector(request, self.detector, self.name),
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
    ("factor-graph", FactorGraphCleaner),
    ("factor_graph", FactorGraphCleaner),
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

    Mirrors :func:`~repro.session.backends.register_backend`: re-registering
    the same factory is a no-op, rebinding a name to a different factory is
    an error.
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


def cleaner_factory(name: str) -> CleanerFactory:
    """The factory registered under ``name`` (raises on unknown names)."""
    return _CLEANERS.get(name)


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
    if cleaner.name == "mlnclean" and backend is not None and backend.name != "batch":
        return f"{label}[{backend.name}]"
    return label
