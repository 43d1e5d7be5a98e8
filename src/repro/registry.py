"""The shared name → factory registry behind every pluggable extension point.

Workloads, cleaners and detectors all follow the same registration idiom:
case-insensitive names, idempotent re-registration of the same factory, a
loud error when a name is rebound to a *different* factory, and a lookup
error that lists what is available.  This class is that idiom, written
once; :mod:`repro.workloads.registry`, :mod:`repro.session.cleaners` and
:mod:`repro.detect.base` are thin domain-specific wrappers over it.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Generic, Optional, TypeVar

F = TypeVar("F")


def unknown_name(kind: str, name: str, available: Sequence[str]) -> str:
    """The shared "unknown name" error message: always lists what exists.

    Every lookup error across the registries (workloads, cleaners,
    detectors, experiments) and MLNClean's backend names goes through this
    helper so a typo'd name is answered with the registered names instead
    of a bare ``KeyError``.
    """
    if available:
        listing = ", ".join(repr(n) for n in available)
    else:
        listing = "none registered"
    return f"unknown {kind} {name!r}; registered {kind}s: {listing}"


class Registry(Generic[F]):
    """A case-insensitive name → factory mapping with safe registration."""

    def __init__(self, kind: str):
        #: what the registry holds ("workload", "cleaner", ...);
        #: used in error messages
        self.kind = kind
        self._entries: dict[str, F] = {}

    def register(self, name: str, factory: F) -> None:
        """Bind ``name`` to ``factory``.

        Re-registering the same factory is a no-op (modules may register on
        import safely); rebinding a name to a different factory is an error —
        aliases of one factory remain allowed.
        """
        key = name.lower()
        existing = self._entries.get(key)
        if existing is not None and existing is not factory:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        self._entries[key] = factory

    def names(self) -> list[str]:
        """All registered names, in registration order."""
        return list(self._entries)

    def lookup(self, name: str) -> Optional[F]:
        """The factory bound to ``name``, or ``None`` when unregistered."""
        return self._entries.get(name.lower())

    def get(self, name: str) -> F:
        """The factory bound to ``name``; raises ``KeyError`` when unknown."""
        factory = self.lookup(name)
        if factory is None:
            raise KeyError(unknown_name(self.kind, name, self.names()))
        return factory

    def items(self) -> list[tuple[str, F]]:
        """(name, factory) pairs, in registration order."""
        return list(self._entries.items())
