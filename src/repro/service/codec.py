"""The service's wire format: request specs and JSON codecs.

Everything that crosses the HTTP boundary is decoded here into typed specs
(:class:`CleanRequestSpec`, :class:`DeltaRequestSpec`) before it reaches the
queue, so shard workers only ever see validated domain objects — a malformed
field answers ``400`` at the front door instead of crashing a worker.  The
same specs are also constructed directly (no JSON) by in-process callers
such as :class:`repro.service.cleaner.ServiceCleaner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.constraints.rules import Rule
from repro.core.config import MLNCleanConfig
from repro.dataset.table import Cell, Table, cell_text
from repro.errors.groundtruth import ErrorType, GroundTruth, InjectedError
from repro.registry import unknown_name
from repro.service.errors import BadRequestError
from repro.session.session import load_rules, load_table
from repro.streaming.delta import DeltaBatch
from repro.streaming.window import SlidingWindow, TumblingWindow, WindowPolicy

#: window policies a delta request may ask for by name
WINDOW_KINDS = ("tumbling", "sliding")


# ----------------------------------------------------------------------
# request specs
# ----------------------------------------------------------------------
@dataclass
class CleanRequestSpec:
    """One decoded ``POST /clean`` request.

    Exactly one of ``workload`` (a registered workload name; the server
    builds the dirty instance with the given error profile) or ``table``
    (an inline dirty table; ``rules`` then required) must be set.
    """

    workload: Optional[str] = None
    tuples: Optional[int] = None
    error_rate: float = 0.05
    replacement_ratio: float = 0.5
    seed: int = 7
    error_seed: int = 42
    table: Optional[Table] = None
    rules: Optional[list[Rule]] = None
    ground_truth: Optional[GroundTruth] = None
    cleaner: str = "mlnclean"
    options: dict = field(default_factory=dict)
    config: Optional[MLNCleanConfig] = None
    config_overrides: dict = field(default_factory=dict)
    #: error-detector stack (wire specs: names / {"name", "options"} objects)
    detectors: Optional[list] = None
    #: include the full report JSON in the job result (signature always is)
    include_report: bool = True

    def validate(self) -> None:
        if (self.workload is None) == (self.table is None):
            raise BadRequestError(
                "a clean request needs exactly one of 'workload' (a "
                "registered workload name) or 'table' (inline records)"
            )
        if self.table is not None and not self.rules:
            raise BadRequestError(
                "an inline-table clean request needs 'rules' (rule strings)"
            )
        if self.cleaner.lower() == "service":
            raise BadRequestError(
                "the 'service' cleaner cannot run inside the service itself; "
                "pick the algorithm it should route to (e.g. 'mlnclean')"
            )


@dataclass
class DeltaRequestSpec:
    """One decoded ``POST /deltas`` request: deltas against a shard's stream.

    The stream's rules / schema / configuration come either from a
    registered ``workload`` or inline (``rules`` + ``schema``).  Requests
    with the same stream identity land on the same shard and are coalesced
    into one micro-batch per tick.
    """

    deltas: DeltaBatch = field(default_factory=DeltaBatch)
    workload: Optional[str] = None
    tuples: Optional[int] = None
    seed: int = 7
    rules: Optional[list[Rule]] = None
    schema: Optional[list[str]] = None
    config: Optional[MLNCleanConfig] = None
    config_overrides: dict = field(default_factory=dict)
    #: {"kind": "tumbling"|"sliding", "size": N} — part of the shard identity
    window: Optional[dict] = None
    #: error-detector stack — part of the shard identity (a scoped and an
    #: unscoped stream are different sessions)
    detectors: Optional[list] = None
    #: include the post-tick cleaned table in the job result
    include_table: bool = True
    #: client-generated request id for exactly-once application: a key
    #: among the last :attr:`~repro.service.pool.Shard.MAX_APPLIED_KEYS` the
    #: shard applied is answered from its in-memory memo instead of
    #: re-applied, so retries after a lost ack cannot double-apply (a
    #: restart forgets the memo).  Not part of the shard identity.
    idempotency_key: Optional[str] = None

    #: delta streams run the incremental MLNClean engine only
    cleaner: str = "mlnclean"

    def validate(self) -> None:
        if (self.workload is None) == (self.rules is None):
            raise BadRequestError(
                "a delta request needs exactly one of 'workload' or inline "
                "'rules' (+ 'schema')"
            )
        if self.rules is not None and not self.schema:
            raise BadRequestError(
                "an inline-rules delta request needs 'schema' (attribute names)"
            )
        if not len(self.deltas):
            raise BadRequestError("a delta request needs at least one delta")
        if self.window is not None:
            build_window(self.window)  # shape-check up front


def normalize_window_spec(spec: Optional[dict]) -> Optional[dict]:
    """The canonical form of a window spec: lower-cased kind, int size.

    Shard identity hashes *this* form, so equivalent spellings
    (``"Tumbling"``/``"tumbling"``, ``"3"``/``3``) route to one shard
    instead of splitting a stream's state across two.
    """
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise BadRequestError("'window' must be an object with 'kind' and 'size'")
    kind = str(spec.get("kind", "")).lower()
    if kind not in WINDOW_KINDS:
        raise BadRequestError(unknown_name("window policy", kind, WINDOW_KINDS))
    try:
        size = int(spec["size"])
    except (KeyError, TypeError, ValueError):
        raise BadRequestError("'window' needs an integer 'size'") from None
    return {"kind": kind, "size": size}


def build_window(spec: Optional[dict]) -> Optional[WindowPolicy]:
    """Instantiate a window policy from its wire form (None = unbounded)."""
    normalized = normalize_window_spec(spec)
    if normalized is None:
        return None
    if normalized["kind"] == "tumbling":
        return TumblingWindow(normalized["size"])
    return SlidingWindow(normalized["size"])


# ----------------------------------------------------------------------
# JSON decoding
# ----------------------------------------------------------------------
#: the top-level fields a ``POST /clean`` body may carry (``wait`` and
#: ``timeout`` are HTTP-level: the front end pops them before decoding)
CLEAN_REQUEST_FIELDS = frozenset({
    "workload", "tuples", "error_rate", "replacement_ratio", "seed",
    "error_seed", "table", "rules", "ground_truth", "cleaner", "options",
    "config", "detectors", "include_report",
})
#: the top-level fields a ``POST /deltas`` body may carry
DELTA_REQUEST_FIELDS = frozenset({
    "deltas", "workload", "tuples", "seed", "rules", "schema", "config",
    "window", "detectors", "include_table", "idempotency_key",
})


def _require_dict(payload: object, what: str) -> dict:
    if not isinstance(payload, dict):
        raise BadRequestError(f"{what} must be a JSON object")
    return payload


def _require_known_fields(data: dict, known: frozenset, what: str) -> None:
    """Answer 400 on a misspelled or retired field instead of ignoring it."""
    unknown = sorted(repr(key) for key in data if key not in known)
    if unknown:
        raise BadRequestError(
            f"unknown {what} field(s) {', '.join(unknown)}; accepted fields: "
            f"{', '.join(sorted(known))}"
        )


def _number(data: dict, key: str, caster, default):
    """Coerce an optional numeric field, answering 400 (not 500) on junk."""
    raw = data.get(key, default)
    if raw is None:
        return None
    try:
        return caster(raw)
    except (TypeError, ValueError):
        raise BadRequestError(
            f"{key!r} must be a number, got {raw!r}"
        ) from None


def _decode_rules(payload: dict) -> Optional[list[Rule]]:
    raw = payload.get("rules")
    if raw is None:
        return None
    if not isinstance(raw, list) or not all(isinstance(r, str) for r in raw):
        raise BadRequestError("'rules' must be a list of rule strings")
    try:
        return load_rules(raw)
    except ValueError as exc:
        raise BadRequestError(f"unparseable rules: {exc}") from exc


def _decode_table(payload: dict) -> Optional[Table]:
    raw = payload.get("table")
    if raw is None:
        return None
    if not isinstance(raw, list) or not all(isinstance(r, dict) for r in raw):
        raise BadRequestError("'table' must be a list of {attribute: value} records")
    try:
        return load_table([{str(k): cell_text(v) for k, v in r.items()} for r in raw])
    except (KeyError, ValueError) as exc:
        raise BadRequestError(f"unloadable table records: {exc}") from exc


def _decode_overrides(payload: dict) -> dict:
    raw = payload.get("config", {})
    overrides = dict(_require_dict(raw, "'config'")) if raw else {}
    if overrides:
        try:
            MLNCleanConfig(**overrides)
        except (TypeError, ValueError, KeyError) as exc:
            raise BadRequestError(f"bad config overrides: {exc}") from exc
    return overrides


def _decode_detectors(data: dict) -> Optional[list]:
    raw = data.get("detectors")
    if raw is None:
        return None
    if not isinstance(raw, list) or not all(
        isinstance(spec, (str, dict)) for spec in raw
    ):
        raise BadRequestError(
            "'detectors' must be a list of detector names or "
            '{"name": ..., "options": {...}} objects'
        )
    from repro.detect.base import validate_detector_specs

    try:
        validate_detector_specs(raw)
    except (TypeError, ValueError) as exc:
        raise BadRequestError(f"bad detector stack: {exc}") from exc
    return list(raw)


def decode_clean_request(payload: object) -> CleanRequestSpec:
    """``POST /clean`` body → validated :class:`CleanRequestSpec`."""
    data = _require_dict(payload, "the request body")
    _require_known_fields(data, CLEAN_REQUEST_FIELDS, "clean request")
    spec = CleanRequestSpec(
        workload=data.get("workload"),
        tuples=_number(data, "tuples", int, None),
        error_rate=_number(data, "error_rate", float, 0.05),
        replacement_ratio=_number(data, "replacement_ratio", float, 0.5),
        seed=_number(data, "seed", int, 7),
        error_seed=_number(data, "error_seed", int, 42),
        table=_decode_table(data),
        rules=_decode_rules(data),
        ground_truth=ground_truth_from_json(data.get("ground_truth")),
        cleaner=str(data.get("cleaner", "mlnclean")),
        options=dict(_require_dict(data.get("options", {}), "'options'")),
        config_overrides=_decode_overrides(data),
        detectors=_decode_detectors(data),
        include_report=bool(data.get("include_report", True)),
    )
    spec.validate()
    return spec


def decode_delta_request(payload: object) -> DeltaRequestSpec:
    """``POST /deltas`` body → validated :class:`DeltaRequestSpec`."""
    data = _require_dict(payload, "the request body")
    _require_known_fields(data, DELTA_REQUEST_FIELDS, "delta request")
    raw_deltas = data.get("deltas")
    if not isinstance(raw_deltas, list):
        raise BadRequestError("'deltas' must be a list of op-tagged objects")
    try:
        deltas = DeltaBatch.from_json_list(raw_deltas)
    except ValueError as exc:
        raise BadRequestError(str(exc)) from exc
    schema = data.get("schema")
    if schema is not None and (
        not isinstance(schema, list) or not all(isinstance(a, str) for a in schema)
    ):
        raise BadRequestError("'schema' must be a list of attribute names")
    idempotency_key = data.get("idempotency_key")
    if idempotency_key is not None and (
        not isinstance(idempotency_key, str) or not idempotency_key
    ):
        raise BadRequestError("'idempotency_key' must be a non-empty string")
    spec = DeltaRequestSpec(
        deltas=deltas,
        workload=data.get("workload"),
        tuples=_number(data, "tuples", int, None),
        seed=_number(data, "seed", int, 7),
        rules=_decode_rules(data),
        schema=schema,
        config_overrides=_decode_overrides(data),
        window=data.get("window"),
        detectors=_decode_detectors(data),
        include_table=bool(data.get("include_table", True)),
        idempotency_key=idempotency_key,
    )
    spec.validate()
    return spec


# ----------------------------------------------------------------------
# ground-truth codec (inline instrumented requests)
# ----------------------------------------------------------------------
def ground_truth_to_json(ground_truth: Optional[GroundTruth]) -> Optional[list]:
    """An injected-error ledger as a JSON-safe list."""
    if ground_truth is None:
        return None
    return [
        {
            "tid": error.cell.tid,
            "attribute": error.cell.attribute,
            "clean": error.clean_value,
            "dirty": error.dirty_value,
            "type": error.error_type.value,
        }
        for error in ground_truth
    ]


def ground_truth_from_json(data: Optional[object]) -> Optional[GroundTruth]:
    """Rebuild a ledger from :func:`ground_truth_to_json` output."""
    if data is None:
        return None
    if not isinstance(data, list):
        raise BadRequestError("'ground_truth' must be a list of error objects")
    errors = []
    for item in data:
        entry = _require_dict(item, "each ground-truth error")
        try:
            errors.append(
                InjectedError(
                    cell=Cell(int(entry["tid"]), str(entry["attribute"])),
                    clean_value=str(entry["clean"]),
                    dirty_value=str(entry["dirty"]),
                    error_type=ErrorType(entry.get("type", "replacement")),
                )
            )
        except (KeyError, ValueError) as exc:
            raise BadRequestError(f"bad ground-truth entry {entry!r}: {exc}") from exc
    return GroundTruth(errors)
