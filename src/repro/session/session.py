"""The `CleaningSession` facade: one entry point for every execution mode.

HoloClean-style session idiom (``load data → load rules → clean``) over the
pluggable internals of this package::

    from repro.session import CleaningSession

    session = (
        CleaningSession.builder()
        .with_rules("CT -> ST", "HN, PN -> CT")
        .with_config(abnormal_threshold=1)
        .with_backend("batch")
        .build()
    )
    session.load_table("hospital.csv")
    report = session.run()

The same session drives MLNClean on any of its three backends (``"batch"``,
``"distributed"``, ``"streaming"``) or any registered cleaner; the result is
always the unified :class:`~repro.core.report.CleaningReport`.
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
    cleaner_factory,
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


class SessionBuilder:
    """Fluent construction of a :class:`CleaningSession`.

    Every ``with_*`` method returns the builder, so calls chain::

        session = (
            CleaningSession.builder()
            .with_rules("CT -> ST")
            .with_config(abnormal_threshold=10)
            .with_backend("streaming", batch_size=50)
            .build()
        )
    """

    def __init__(self) -> None:
        self._rules: list[Rule] = []
        self._config: Optional[MLNCleanConfig] = None
        self._config_overrides: dict[str, object] = {}
        self._backend_name: str = "batch"
        self._backend_options: dict[str, object] = {}
        self._backend_selected: bool = False
        self._cleaner_name: Optional[str] = None
        self._cleaner_options: dict[str, object] = {}
        self._detectors: Optional[list] = None
        self._table: Optional[Table] = None
        self._ground_truth: Optional[GroundTruth] = None

    def with_rules(self, *sources: RulesLike) -> "SessionBuilder":
        """Add rules from any mix of strings, Rule objects, and files."""
        for source in sources:
            _extend_rules(self._rules, source)
        return self

    def with_config(
        self, config: Optional[MLNCleanConfig] = None, **overrides
    ) -> "SessionBuilder":
        """Set the pipeline configuration (an instance, field overrides, or both)."""
        if config is not None:
            self._config = config
        self._config_overrides.update(overrides)
        return self

    def for_workload(self, dataset: str, **overrides) -> "SessionBuilder":
        """Start from the registered workload's recommended configuration."""
        from repro.workloads.registry import recommended_config

        self._config = recommended_config(dataset, **overrides)
        return self

    def with_backend(self, name: str, **options) -> "SessionBuilder":
        """Select MLNClean's execution backend by name, with its options.

        Backend selection configures the (default) ``"mlnclean"`` cleaner —
        the baselines of :mod:`repro.session.cleaners` are stand-alone
        algorithms with no execution backend.
        """
        self._backend_name = name
        self._backend_options = dict(options)
        self._backend_selected = True
        return self

    def with_cleaner(self, name: str, **options) -> "SessionBuilder":
        """Select the cleaning algorithm by registry name, with its options.

        ``with_cleaner("holoclean")`` swaps the whole algorithm the same way
        ``with_backend("distributed")`` swaps MLNClean's execution engine;
        every cleaner returns the unified
        :class:`~repro.core.report.CleaningReport`.
        """
        self._cleaner_name = name
        self._cleaner_options = dict(options)
        return self

    def with_detectors(self, *specs) -> "SessionBuilder":
        """Select the error-detection stack (detector specs, in order).

        Specs are registered names (``"violation"``), mappings
        (``{"name": "violation", "options": {"dc_file": ...}}``), or
        :class:`~repro.detect.Detector` instances — see :mod:`repro.detect`.
        Runs then detect first and clean dirty-scoped (exact-or-prune).
        """
        from repro.detect.base import resolve_detectors

        resolve_detectors(specs)  # validate eagerly: fail at build time
        self._detectors = list(specs)
        return self

    def with_table(
        self,
        source: TableLike,
        attributes: Optional[Sequence[str]] = None,
        name: Optional[str] = None,
    ) -> "SessionBuilder":
        """Attach the dirty table up front (same sources as ``load_table``)."""
        self._table = load_table(source, attributes=attributes, name=name)
        return self

    def with_ground_truth(self, ground_truth: GroundTruth) -> "SessionBuilder":
        """Attach an injected-error ledger: runs report repair accuracy."""
        self._ground_truth = ground_truth
        return self

    def build(self) -> "CleaningSession":
        """Construct the session (the cleaner is instantiated here)."""
        config = self._config or MLNCleanConfig()
        if self._config_overrides:
            from dataclasses import replace

            config = replace(config, **self._config_overrides)
        return CleaningSession(
            rules=list(self._rules),
            config=config,
            cleaner=self._build_cleaner(),
            detectors=self._detectors,
            table=self._table,
            ground_truth=self._ground_truth,
        )

    def _build_cleaner(self) -> Cleaner:
        """Resolve the cleaner/backend selections into one cleaner instance."""
        if self._cleaner_name is None:
            return MLNCleanCleaner(self._backend_name, **self._backend_options)
        factory = cleaner_factory(self._cleaner_name)
        if factory is MLNCleanCleaner:
            options = dict(self._cleaner_options)
            if self._backend_selected:
                if "backend" in options:
                    raise ValueError(
                        "the execution backend was selected twice: drop "
                        "either with_backend(...) or the cleaner's "
                        "backend=... option"
                    )
                options["backend"] = self._backend_name
                options.update(self._backend_options)
            return factory(**options)
        if self._backend_selected:
            raise ValueError(
                f"the {self._cleaner_name!r} cleaner is a stand-alone "
                f"algorithm; with_backend(...) configures the 'mlnclean' "
                f"cleaner only"
            )
        return factory(**self._cleaner_options)


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
    """One configured cleaning context: rules + config + cleaner/backend.

    Sessions are reusable: :meth:`run` can be called repeatedly, with the
    attached table or with an explicit one per call.  The attached state can
    be (re)loaded through :meth:`load_table` / :meth:`load_rules` /
    :meth:`attach_ground_truth` between runs.
    """

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        config: Optional[MLNCleanConfig] = None,
        backend: Optional[str] = None,
        table: Optional[Table] = None,
        ground_truth: Optional[GroundTruth] = None,
        cleaner: Optional[Union[Cleaner, str]] = None,
        detectors: Optional[Sequence] = None,
    ):
        self.rules: list[Rule] = list(rules) if rules is not None else []
        self.config = config or MLNCleanConfig()
        if cleaner is None:
            # the historic constructor shape: MLNClean on the given backend
            self.cleaner: Cleaner = MLNCleanCleaner(
                backend if backend is not None else "batch"
            )
        else:
            if backend is not None:
                raise ValueError(
                    "pass either cleaner or backend, not both: the backend "
                    "configures the default mlnclean cleaner (use "
                    "cleaner=MLNCleanCleaner(backend, ...) to combine them)"
                )
            self.cleaner = get_cleaner(cleaner) if isinstance(cleaner, str) else cleaner
        self.detectors = list(detectors) if detectors is not None else None
        self.table = table
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

    @staticmethod
    def builder() -> SessionBuilder:
        """Start a fluent :class:`SessionBuilder`."""
        return SessionBuilder()

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

    def attach_ground_truth(self, ground_truth: GroundTruth) -> None:
        """Attach the injected-error ledger; later runs report accuracy."""
        self.ground_truth = ground_truth

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

    #: HoloClean-style alias: ``session.clean()`` == ``session.run()``
    clean = run

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


#: short alias used throughout the docs: ``Session.builder()...``
Session = CleaningSession
