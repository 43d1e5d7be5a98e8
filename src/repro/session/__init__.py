"""Unified session API: one facade over every cleaner and execution mode.

The package used to expose three divergent entry points — batch
``MLNClean.clean()``, ``DistributedMLNClean.clean()`` and
``StreamingMLNClean`` — each with its own config plumbing and report type.
:class:`CleaningSession` replaces the three-way fork with one facade:

* :mod:`repro.session.session` — the :class:`CleaningSession` facade plus
  :func:`load_table` (Table / dict rows / CSV) and :func:`load_rules`
  (strings / Rule objects / rule files),
* :mod:`repro.session.cleaners` — the :class:`CleaningRequest`, the
  :class:`Cleaner` protocol and registry (:func:`register_cleaner`):
  MLNClean on its batch, distributed or streaming engine, and every
  comparison baseline, behind the session's one ``cleaner=`` argument.

Every cleaner returns the same unified
:class:`~repro.core.report.CleaningReport`.
"""

from repro.session.cleaners import (
    Cleaner,
    CleaningRequest,
    HoloCleanCleaner,
    MLNCleanCleaner,
    MinimalRepairCleaner,
    available_cleaners,
    get_cleaner,
    register_cleaner,
)
from repro.session.session import CleaningSession, load_rules, load_table

__all__ = [
    "CleaningSession",
    "load_table",
    "load_rules",
    "CleaningRequest",
    "Cleaner",
    "MLNCleanCleaner",
    "HoloCleanCleaner",
    "MinimalRepairCleaner",
    "register_cleaner",
    "available_cleaners",
    "get_cleaner",
]
