"""Unified session API: one facade over every execution backend and cleaner.

The package used to expose three divergent entry points — batch
``MLNClean.clean()``, ``DistributedMLNClean.clean()`` and
``StreamingMLNClean`` — each with its own config plumbing and report type.
:class:`CleaningSession` replaces the three-way fork with one facade over
swappable internals:

* :mod:`repro.session.session` — the :class:`CleaningSession` /
  :class:`SessionBuilder` facade plus :func:`load_table` (Table / dict rows /
  CSV) and :func:`load_rules` (strings / Rule objects / rule files),
* :mod:`repro.session.backends` — the :class:`ExecutionBackend` protocol,
  the backend registry (:func:`register_backend`), and the three built-in
  adapters over the existing engines,
* :mod:`repro.session.cleaners` — the :class:`Cleaner` protocol and registry
  (:func:`register_cleaner`): MLNClean and every comparison baseline behind
  one ``with_cleaner(name)`` call, all returning the unified report.

Every backend returns the same unified
:class:`~repro.core.report.CleaningReport`; a new execution mode is one
``register_backend()`` call instead of a three-way code fork.
"""

from repro.session.backends import (
    BatchBackend,
    CleaningRequest,
    DistributedBackend,
    ExecutionBackend,
    StreamingBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.session.cleaners import (
    Cleaner,
    FactorGraphCleaner,
    HoloCleanCleaner,
    MLNCleanCleaner,
    MinimalRepairCleaner,
    available_cleaners,
    get_cleaner,
    register_cleaner,
)
from repro.session.session import (
    CleaningSession,
    Session,
    SessionBuilder,
    load_rules,
    load_table,
)

__all__ = [
    "CleaningSession",
    "Session",
    "SessionBuilder",
    "load_table",
    "load_rules",
    "ExecutionBackend",
    "CleaningRequest",
    "BatchBackend",
    "DistributedBackend",
    "StreamingBackend",
    "register_backend",
    "available_backends",
    "get_backend",
    "Cleaner",
    "MLNCleanCleaner",
    "HoloCleanCleaner",
    "MinimalRepairCleaner",
    "FactorGraphCleaner",
    "register_cleaner",
    "available_cleaners",
    "get_cleaner",
]
