"""The detection protocol, the dirty-cell result type, and the registry.

Error detection is the front end that decides *which cells are noisy* before
any repair runs.  HoloClean treats it as a first-class pluggable phase
(null/violation/fixed detectors unioned into one dirty-cell set); this module
ports that shape:

* :class:`Detector` — the protocol (``detect(table, rules) -> set[Cell]``).
* :class:`DirtyCells` — the union result of a detector stack, with
  per-detector provenance and precision/recall against an injected-error
  ledger.
* the registry — ``register_detector`` / ``available_detectors`` /
  ``get_detector``, mirroring the cleaner/backend/stage registries.

A *detector spec* (what requests, sessions and the service wire carry) is a
registered name (``"violation"``), a ``{"name": ..., "options": {...}}``
mapping, or an already-built detector instance; :func:`resolve_detector`
turns any of them into a live detector.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.constraints.rules import Rule
from repro.dataset.table import Cell, Table
from repro.registry import Registry, unknown_name


class Detector(ABC):
    """Interface of the detection phase: which cells are considered noisy."""

    #: registry name; doubles as the provenance / metrics label of the
    #: detector inside a stack
    name: str = "detector"

    #: how far one delta's effect reaches, for streaming re-detection:
    #: ``"tuple"`` — a cell's verdict depends only on its own row,
    #: ``"rule"``  — verdicts change only for rules whose block was dirtied,
    #: ``"table"`` — any change may flip any verdict (full re-detection)
    granularity: str = "table"

    @abstractmethod
    def detect(self, table: Table, rules: Sequence[Rule]) -> set[Cell]:
        """The set of cells the repair phase is allowed to change."""


@dataclass
class DirtyCells:
    """The output of one detection pass: a cell set with provenance.

    ``by_detector`` keeps which stack member flagged which cells (a cell
    flagged by several detectors appears under each); ``cells`` is their
    union.  Detection provenance is carried in report *details* only — it
    never enters the signature-covered report surface.
    """

    #: the union of every detector's flagged cells
    cells: set[Cell] = field(default_factory=set)
    #: provenance: detector label → the cells it flagged, in stack order
    by_detector: dict[str, set[Cell]] = field(default_factory=dict)
    #: wall-clock seconds the detection pass took
    seconds: float = 0.0

    def __contains__(self, cell: Cell) -> bool:
        return cell in self.cells

    def __iter__(self):
        return iter(self.cells)

    @property
    def count(self) -> int:
        return len(self.cells)

    def tids(self) -> set[int]:
        """The tuples with at least one detected cell."""
        return {cell.tid for cell in self.cells}

    def attributes(self) -> set[str]:
        """The attributes with at least one detected cell."""
        return {cell.attribute for cell in self.cells}

    def covers(self, table: Table) -> bool:
        """True when every cell of ``table`` is flagged (the all-cells case).

        This is the exact-or-prune pivot: a detection that covers the whole
        table disables scoping entirely, so the pipeline takes the same code
        path (and produces byte-identical output) as a run with no detectors.
        """
        expected = len(table) * len(table.attributes)
        if len(self.cells) < expected:
            return False
        return all(
            Cell(tid, attribute) in self.cells
            for tid in table.tids
            for attribute in table.attributes
        )

    def accuracy(self, dirty_cells: set[Cell], table: Table) -> dict[str, float]:
        """Detection precision/recall/F1 against an injected-error cell set.

        ``dirty_cells`` is restricted to the tuples of ``table`` first, so a
        windowed/subset run is scored only on the cells it could have seen.
        """
        truth = {cell for cell in dirty_cells if table.has_tid(cell.tid)}
        flagged = len(self.cells)
        hits = len(self.cells & truth)
        precision = hits / flagged if flagged else 0.0
        recall = hits / len(truth) if truth else 0.0
        denominator = precision + recall
        f1 = 2 * precision * recall / denominator if denominator else 0.0
        return {"precision": precision, "recall": recall, "f1": f1}

    def to_json_dict(self) -> dict:
        """JSON-safe payload (sorted cells; the CLI emits exactly this)."""
        return {
            "count": len(self.cells),
            "cells": _cells_to_json(self.cells),
            "by_detector": {
                name: _cells_to_json(cells)
                for name, cells in self.by_detector.items()
            },
            "seconds": round(self.seconds, 6),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "DirtyCells":
        return cls(
            cells=_cells_from_json(data.get("cells", [])),
            by_detector={
                str(name): _cells_from_json(cells)
                for name, cells in dict(data.get("by_detector", {})).items()
            },
            seconds=float(data.get("seconds", 0.0)),
        )


def _cells_to_json(cells: set[Cell]) -> list[list]:
    return [
        [cell.tid, cell.attribute]
        for cell in sorted(cells, key=lambda c: (c.tid, c.attribute))
    ]


def _cells_from_json(payload) -> set[Cell]:
    return {Cell(int(tid), str(attribute)) for tid, attribute in payload}


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

#: a factory building a detector from keyword options
DetectorFactory = Callable[..., Detector]

_DETECTORS: Registry[DetectorFactory] = Registry("detector")

#: what requests and the service wire carry: a registered name, a
#: ``{"name", "options"}`` mapping, or a live detector instance
DetectorSpec = Union[str, Mapping, Detector]


def register_detector(name: str, factory: DetectorFactory) -> None:
    """Register a detector factory under ``name`` (case-insensitive).

    Mirrors :func:`repro.session.register_cleaner`: re-registering the
    same factory is a no-op, rebinding a name to a different factory is an
    error.
    """
    _DETECTORS.register(name, factory)


def available_detectors() -> list[str]:
    """All registered detector names, in registration order."""
    return _DETECTORS.names()


def get_detector(name: str, **options) -> Detector:
    """Instantiate the detector registered under ``name``."""
    return _DETECTORS.get(name)(**options)


def resolve_detector(spec: DetectorSpec) -> Detector:
    """Turn one detector spec (name / mapping / instance) into a detector."""
    if isinstance(spec, str):
        return get_detector(spec)
    if isinstance(spec, Mapping):
        payload = dict(spec)
        name = payload.pop("name", None)
        if not isinstance(name, str) or not name:
            raise ValueError(f"detector spec needs a 'name' string: {spec!r}")
        options = payload.pop("options", None) or {}
        if payload:
            raise ValueError(
                f"unexpected detector spec keys {sorted(payload)!r} "
                "(only 'name' and 'options' are allowed)"
            )
        return get_detector(name, **dict(options))
    if hasattr(spec, "detect"):
        return spec
    raise TypeError(
        f"cannot resolve detector spec {spec!r}: expected a registered name, "
        "a {'name', 'options'} mapping, or a detector instance"
    )


def resolve_detectors(specs: Sequence[DetectorSpec]) -> list[Detector]:
    """Resolve a whole detector stack, preserving order."""
    return [resolve_detector(spec) for spec in specs]


def detector_specs_identity(specs: Optional[Sequence[DetectorSpec]]):
    """A deterministic JSON-safe identity of a detector stack.

    Session fingerprints and the service's routing memo fold this in, so two
    requests with different detector stacks never share cached state.  An
    instance spec is identified by its class path (options of hand-built
    instances are not introspectable — callers who need finer identity
    should pass name+options specs instead).
    """
    if specs is None:
        return None
    identity = []
    for spec in specs:
        if isinstance(spec, str):
            identity.append({"name": spec.lower()})
        elif isinstance(spec, Mapping):
            name = str(spec.get("name", "")).lower()
            options = spec.get("options") or {}
            identity.append({"name": name, "options": dict(options)})
        else:
            cls = type(spec)
            identity.append(
                {
                    "name": str(getattr(spec, "name", "")),
                    "instance": f"{cls.__module__}.{cls.__qualname__}",
                }
            )
    return identity


def validate_detector_specs(specs) -> list:
    """Check a wire-decoded detector stack (names and shapes only).

    Raises ``ValueError`` with the registry's :func:`unknown_name` message
    for unregistered names — the service maps that onto a 400.  Returns the
    normalized list.
    """
    if not isinstance(specs, (list, tuple)):
        raise ValueError("'detectors' must be a list of detector specs")
    validated: list = []
    for spec in specs:
        if isinstance(spec, str):
            name = spec
        elif isinstance(spec, Mapping):
            name = spec.get("name")
            if not isinstance(name, str) or not name:
                raise ValueError(f"detector spec needs a 'name' string: {spec!r}")
        else:
            raise ValueError(
                f"detector spec must be a name or a {{'name', 'options'}} "
                f"mapping, got {spec!r}"
            )
        if _DETECTORS.lookup(name) is None:
            raise ValueError(unknown_name("detector", name, available_detectors()))
        validated.append(spec)
    return validated
