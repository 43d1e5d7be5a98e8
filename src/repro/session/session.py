"""The `CleaningSession` facade: one entry point for every execution mode.

HoloClean-style session idiom (``load data → load rules → clean``) over the
pluggable internals of this package::

    from repro import CleaningSession, MLNCleanConfig

    session = CleaningSession(config=MLNCleanConfig(abnormal_threshold=1))
    session.load_rules("CT -> ST", "HN, PN -> CT")
    session.load_table("hospital.csv")
    report = session.run()

The ``cleaner`` argument picks the algorithm: MLNClean on one of its three
engines (``MLNCleanCleaner("distributed", workers=4)``,
``MLNCleanCleaner("streaming", batch_size=100)``; batch by default) or any
registered cleaner by name (``cleaner="holoclean"``).  The result is always
the unified :class:`~repro.core.report.CleaningReport`.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path
from typing import Optional, Union

from repro.constraints.parser import RuleParseError, parse_rule, rules_to_strings
from repro.constraints.rules import Rule
from repro.core.config import MLNCleanConfig
from repro.core.report import CleaningReport
from repro.dataset.io import read_csv
from repro.dataset.table import Table
from repro.errors.groundtruth import GroundTruth
from repro.obs import ensure_tracer, span
from repro.session.cleaners import (
    Cleaner,
    CleaningRequest,
    MLNCleanCleaner,
    get_cleaner,
)

#: anything :func:`load_rules` understands
RulesLike = Union[str, Path, Rule, Iterable[Union[str, Rule]]]
#: anything :func:`load_table` understands
TableLike = Union[str, Path, Table, Sequence[Mapping[str, str]]]


#: placeholder prefix marking rules whose name the collision-aware
#: renumbering in :func:`_extend_rules` still has to assign
_AUTONAME = "__autoname__"


def load_rules(source: RulesLike, prefix: str = "r") -> list[Rule]:
    """Load integrity constraints from strings, Rule objects, or a file.

    Accepted sources:

    * a :class:`Rule` instance (returned as a one-element list),
    * one rule string (``"CT -> ST"`` or ``"DC: ..."``),
    * a path to a text file with one rule per line (blank lines and ``#``
      comments are skipped) — recognised by an existing file or a
      ``.txt``/``.rules`` suffix,
    * any iterable mixing rule strings and Rule instances.

    Parsed rules are named ``<prefix>1``, ``<prefix>2``, ... by position,
    skipping names that explicitly named :class:`Rule` instances in the
    same source already claim; an explicit duplicate name raises (the MLN
    index keys blocks by rule name, so a collision would silently drop a
    constraint).
    """
    rules: list[Rule] = []
    _extend_rules(rules, source, prefix=prefix)
    return rules


def _load_raw(source: RulesLike) -> list[Rule]:
    """Load ``source`` with parsed rules carrying placeholder names."""
    if isinstance(source, Rule):
        return [source]
    if isinstance(source, Path):
        return _rules_from_file(source)
    if isinstance(source, str):
        path = Path(source)
        if path.suffix in (".txt", ".rules") or path.is_file():
            return _rules_from_file(path)
        return [parse_rule(source, name=f"{_AUTONAME}1")]
    return [
        item if isinstance(item, Rule) else parse_rule(item, name=f"{_AUTONAME}{i}")
        for i, item in enumerate(source, start=1)
    ]


#: ``name: rule`` prefix in rule files (the form :func:`rules_to_strings`
#: renders); "DC" is excluded so a bare denial constraint stays anonymous
_NAMED_RULE_LINE = re.compile(r"^(?P<name>[A-Za-z_][\w.-]*)\s*:\s*(?P<body>.+)$")


def _rules_from_file(path: Path) -> list[Rule]:
    """Parse a rule file, honouring optional ``name: rule`` prefixes.

    Blank lines and ``#`` comments are skipped; every parse error carries
    the 1-based line number and the offending text.  Lines may carry an
    explicit name (``r1: CT -> ST``); unnamed lines get positional names
    later.  Two lines claiming the same explicit name would previously both
    be renumbered silently — since the MLN index keys its blocks by rule
    name, that hid a dropped constraint, so a duplicate now raises instead.
    """
    if not path.is_file():
        raise FileNotFoundError(f"rule file {path} does not exist")
    numbered = [
        (lineno, line.strip())
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
    ]
    texts = [
        (lineno, line)
        for lineno, line in numbered
        if line and not line.startswith("#")
    ]
    rules: list[Rule] = []
    named: set[str] = set()
    for lineno, text in texts:
        match = _NAMED_RULE_LINE.match(text)
        try:
            if match is not None and match.group("name").lower() != "dc":
                name = match.group("name")
                if name in named:
                    raise ValueError(
                        f"duplicate rule name {name!r}: every rule needs a "
                        f"distinct name (the MLN index keys blocks by rule "
                        f"name, so a collision would silently drop a "
                        f"constraint)"
                    )
                named.add(name)
                rules.append(parse_rule(match.group("body"), name=name))
            else:
                rules.append(parse_rule(text, name=f"{_AUTONAME}{lineno}"))
        except RuleParseError as exc:
            raise RuleParseError(
                f"{path}:{lineno}: {exc} [line: {text!r}]"
            ) from exc
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc} [line: {text!r}]") from exc
    return rules


def load_table(
    source: TableLike,
    attributes: Optional[Sequence[str]] = None,
    name: Optional[str] = None,
) -> Table:
    """Load a table from a :class:`Table`, dict rows, or a CSV path.

    * a :class:`Table` is passed through unchanged (``attributes``/``name``
      must then be omitted),
    * a ``str``/``Path`` is read as a CSV file with a header row,
    * a sequence of mappings becomes the rows of a new table.
    """
    if isinstance(source, Table):
        if attributes is not None or name is not None:
            raise ValueError(
                "attributes/name only apply when loading from CSV or records"
            )
        return source
    if isinstance(source, (str, Path)):
        return read_csv(source, attributes=attributes, name=name)
    return Table.from_records(
        source, attributes=attributes, name=name if name is not None else "T"
    )


def _extend_rules(existing: list[Rule], source: RulesLike, prefix: str = "r") -> None:
    """Load ``source`` and append to ``existing`` with collision-free names.

    The MLN index keys its blocks by rule name, so two rules sharing a name
    would silently shadow each other.  Auto-named (parsed) rules therefore
    take the next free ``<prefix>N`` by position; an explicitly named
    :class:`Rule` that collides is rejected loudly.
    """
    taken = {rule.name for rule in existing}
    for rule in _load_raw(source):
        if rule.name.startswith(_AUTONAME):
            counter = len(existing) + 1
            while f"{prefix}{counter}" in taken:
                counter += 1
            rule.name = f"{prefix}{counter}"
        elif rule.name in taken:
            raise ValueError(
                f"duplicate rule name {rule.name!r}: the MLN index needs "
                f"every rule to have a distinct name"
            )
        taken.add(rule.name)
        existing.append(rule)


class CleaningSession:
    """One configured cleaning context: rules + config + cleaner.

    ``cleaner`` is a :class:`Cleaner` instance or a registered name and
    defaults to MLNClean on its batch engine.  ``detectors`` is an
    error-detection stack (see :mod:`repro.detect`), resolved here so an
    unknown detector fails at construction.

    ``rules`` and ``table`` take every shape :meth:`load_rules` and
    :meth:`load_table` take, and go through them.

    Sessions are reusable: :meth:`run` can be called repeatedly, with the
    attached table or with an explicit one per call.  The attached state can
    be (re)loaded through :meth:`load_table` / :meth:`load_rules` between
    runs.
    """

    def __init__(
        self,
        rules: Optional[RulesLike] = None,
        config: Optional[MLNCleanConfig] = None,
        cleaner: Optional[Union[Cleaner, str]] = None,
        detectors: Optional[Sequence] = None,
        table: Optional[TableLike] = None,
        ground_truth: Optional[GroundTruth] = None,
    ):
        self.rules: list[Rule] = []
        if rules is not None:
            self.load_rules(rules)
        self.config = config or MLNCleanConfig()
        if cleaner is None:
            cleaner = MLNCleanCleaner()
        elif isinstance(cleaner, str):
            cleaner = get_cleaner(cleaner)
        self.cleaner: Cleaner = cleaner
        if detectors is not None:
            from repro.detect.base import resolve_detectors

            resolve_detectors(detectors)  # an unknown detector fails here
            detectors = list(detectors)
        self.detectors = detectors
        self.table = load_table(table) if table is not None else None
        self.ground_truth = ground_truth
        #: the report of the most recent run (None before the first run)
        self.last_report: Optional[CleaningReport] = None
        #: the :class:`repro.obs.Tracer` the most recent run executed under
        #: (None when tracing was off — ``config.trace`` and no ambient
        #: tracer); its finished spans hold the run's full span tree
        self.last_trace = None

    @property
    def backend(self) -> Optional[str]:
        """The backend name of an MLNClean session (None otherwise)."""
        if isinstance(self.cleaner, MLNCleanCleaner):
            return self.cleaner.backend
        return None

    def fingerprint(self) -> str:
        """A stable hex digest of the session's cleaning behaviour.

        Covers everything the session itself pins down: the cleaner and (for
        MLNClean) backend names, the attached rules, the full pipeline
        configuration, and the streaming backend's window policy when one
        is set.  Two sessions with equal fingerprints run
        the same algorithm under the same configuration — which is exactly
        the identity :class:`repro.service.pool.SessionPool` shards warm
        sessions by.  Execution-only knobs that are proven output-invariant
        (distributed ``workers``, streaming replay ``batch_size``)
        deliberately do not participate.

        Algorithm-specific options of non-MLNClean cleaners (e.g. HoloClean
        training epochs) are not visible from the session; callers routing
        on those fold them in on top (the service's shard keys do).
        """
        window = None
        if isinstance(self.cleaner, MLNCleanCleaner):
            window = self.cleaner.options.get("window")
        payload = {
            "cleaner": self.cleaner.name,
            "backend": self.backend,
            "rules": rules_to_strings(self.rules),
            # identity_dict, not asdict: observability knobs (config.trace)
            # must not move a session to a different fingerprint/shard
            "config": self.config.identity_dict(),
            "window": _window_fingerprint(window),
        }
        if self.detectors:
            # only when a stack is set, so detector-free sessions keep their
            # historic fingerprints
            from repro.detect.base import detector_specs_identity

            payload["detectors"] = detector_specs_identity(self.detectors)
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load_table(
        self,
        source: TableLike,
        attributes: Optional[Sequence[str]] = None,
        name: Optional[str] = None,
    ) -> Table:
        """Load and attach the dirty table (Table / dict rows / CSV path)."""
        self.table = load_table(source, attributes=attributes, name=name)
        return self.table

    def load_rules(self, *sources: RulesLike, replace: bool = False) -> list[Rule]:
        """Load and attach rules (strings / Rule objects / rule files).

        ``replace=True`` discards previously attached rules first.
        """
        if replace:
            self.rules = []
        for source in sources:
            _extend_rules(self.rules, source)
        return self.rules

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        table: Optional[TableLike] = None,
        rules: Optional[RulesLike] = None,
        ground_truth: Optional[GroundTruth] = None,
    ) -> CleaningReport:
        """Execute one cleaning run with the configured cleaner.

        Arguments default to the session's attached state; passing them
        explicitly neither requires nor modifies that state.
        """
        dirty = self.table if table is None else load_table(table)
        if dirty is None:
            raise ValueError(
                "no table to clean: call load_table() or pass one to run()"
            )
        run_rules = self.rules if rules is None else load_rules(rules)
        if not run_rules:
            raise ValueError(
                "no integrity constraints: call load_rules() or pass rules to run()"
            )
        truth = ground_truth if ground_truth is not None else self.ground_truth
        request = CleaningRequest(
            dirty=dirty,
            rules=list(run_rules),
            config=self.config,
            ground_truth=truth,
            detectors=list(self.detectors) if self.detectors is not None else None,
        )
        with ensure_tracer(self.config.trace) as tracer:
            self.last_trace = tracer
            with span(
                "session.run",
                cleaner=self.cleaner.name,
                backend=self.backend,
                tuples=len(dirty),
                rules=len(run_rules),
            ):
                self.last_report = self.cleaner.run(request)
        return self.last_report

    def describe(self) -> str:
        """One line summarising the session's configuration."""
        engine = f"cleaner={self.cleaner.name}"
        if self.backend is not None:
            engine += f", backend={self.backend}"
        return (
            f"CleaningSession({engine}, "
            f"rules={len(self.rules)}, "
            f"tau={self.config.abnormal_threshold}, "
            f"metric={self.config.distance_metric})"
        )


def _window_fingerprint(window: Optional[object]) -> Optional[dict]:
    """The JSON-safe identity of a streaming window policy (None = unbounded).

    Window policies change cleaning *output* (eviction removes tuples), so
    they belong in the fingerprint; only their simple constructor state
    participates, not their runtime bookkeeping.
    """
    if window is None:
        return None
    state = {
        key: value
        for key, value in vars(window).items()
        if not key.startswith("_") and isinstance(value, (int, float, str, bool))
    }
    return {"kind": type(window).__name__, **state}
