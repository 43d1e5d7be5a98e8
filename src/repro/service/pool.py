"""The session pool: one warm ``CleaningSession`` per shard.

A *shard* is the unit of routing and of serialization: all requests with the
same ``(workload, cleaner, config-fingerprint)`` identity share one warm
:class:`~repro.session.session.CleaningSession` (and, for delta requests,
one long-lived :class:`~repro.streaming.cleaner.StreamingMLNClean` engine)
and execute serially on it, while distinct shards run concurrently.  The
fingerprint folds together :meth:`CleaningSession.fingerprint` (cleaner,
backend, rules, full config, stage order, window) with the request's
cleaner options and window spec, so two requests land on the same shard
exactly when a single warm session can serve both.

Routing is cheap by construction: it needs the workload's *rules* and
recommended config (both available from the generator without building any
table), never the data.  Table generation and error injection happen later,
on the worker thread, through :meth:`SessionPool.resolve_clean_inputs` —
with a per-pool instance cache so repeated requests against the same
workload profile reuse the generated instance instead of rebuilding it.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Optional, Union

from repro.constraints.parser import rules_to_strings
from repro.core.config import OBSERVABILITY_FIELDS, MLNCleanConfig
from repro.dataset.table import Table
from repro.detect.base import detector_specs_identity
from repro.errors.groundtruth import GroundTruth
from repro.service.codec import (
    CleanRequestSpec,
    DeltaRequestSpec,
    build_window,
    normalize_window_spec,
)
from repro.service.errors import BadRequestError, PoolExhaustedError
from repro.session.cleaners import get_cleaner
from repro.session.session import CleaningSession
from repro.streaming.cleaner import StreamingMLNClean
from repro.workloads.registry import get_workload_generator, recommended_config

#: shard-key workload label of inline (request-supplied) tables and rules
INLINE = "inline"


@dataclass(frozen=True)
class ShardKey:
    """The routing identity of a shard."""

    workload: str
    cleaner: str
    fingerprint: str

    @property
    def label(self) -> str:
        """Human-readable form used in job payloads and ``/stats``."""
        return f"{self.workload}:{self.cleaner}:{self.fingerprint[:10]}"


class Shard:
    """One warm session (plus, lazily, one streaming engine) and its counters."""

    def __init__(
        self,
        key: ShardKey,
        session: CleaningSession,
        window_spec: Optional[dict] = None,
    ):
        self.key = key
        self.session = session
        self.window_spec = window_spec
        #: the long-lived incremental engine of this shard's delta stream
        self.stream: Optional[StreamingMLNClean] = None
        self.created = time.monotonic()
        self.jobs_done = 0
        self.ticks = 0
        self.coalesced_requests = 0
        self.session_reuses = 0
        #: idempotency key → memoized result of its first application;
        #: in memory only (a restart forgets it) and a bounded LRU, so
        #: adversarial key churn cannot grow the shard
        self.applied_keys: "OrderedDict[str, dict]" = OrderedDict()

    #: applied keys remembered per shard before the oldest are forgotten
    MAX_APPLIED_KEYS = 512

    def remember_key(self, key: str, result: dict) -> None:
        """Memoize one applied request so its retries dedupe."""
        self.applied_keys[key] = result
        self.applied_keys.move_to_end(key)
        while len(self.applied_keys) > self.MAX_APPLIED_KEYS:
            self.applied_keys.popitem(last=False)

    def replayed_result(self, key: str) -> dict:
        """The dedupe answer for an already-applied key: its original ack."""
        return self.applied_keys[key]

    def stream_engine(self, schema: list) -> StreamingMLNClean:
        """The shard's streaming engine, created on first delta tick."""
        if self.stream is None:
            self.stream = StreamingMLNClean(
                self.session.rules,
                schema=schema,
                config=self.session.config,
                window=build_window(self.window_spec),
                detectors=self.session.detectors,
            )
        return self.stream

    def stats(self) -> dict:
        uptime = max(time.monotonic() - self.created, 1e-9)
        return {
            "shard": self.key.label,
            "workload": self.key.workload,
            "cleaner": self.key.cleaner,
            "fingerprint": self.key.fingerprint,
            "jobs_done": self.jobs_done,
            "ticks": self.ticks,
            "coalesced_requests": self.coalesced_requests,
            "session_reuses": self.session_reuses,
            "stream_tuples": len(self.stream) if self.stream is not None else None,
            "throughput_jobs_per_s": round(self.jobs_done / uptime, 4),
        }


class SessionPool:
    """Routes request specs to shards, keeping one warm session per shard.

    All three containers are bounded, so a long-lived server cannot be
    grown without limit by varied (or adversarial) request shapes: shards
    hold live state and are *refused* beyond ``max_shards``
    (:class:`PoolExhaustedError` → 503), while the routing memo and the
    generated-instance cache are pure caches and evict FIFO.
    """

    def __init__(
        self,
        max_shards: int = 256,
        max_instances: int = 64,
        max_route_memo: int = 4096,
    ):
        if min(max_shards, max_instances, max_route_memo) < 1:
            raise ValueError("every SessionPool bound must be >= 1")
        self.max_shards = max_shards
        self.max_instances = max_instances
        self.max_route_memo = max_route_memo
        self._shards: dict = {}
        self._instances: "OrderedDict" = OrderedDict()
        #: request-identity string → ShardKey, so steady-state routing of a
        #: previously-seen request shape skips session construction entirely
        self._route_memo: "OrderedDict" = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # routing (event-loop side: cheap, no table generation)
    # ------------------------------------------------------------------
    def route(self, spec: Union[CleanRequestSpec, DeltaRequestSpec]) -> Shard:
        """The shard serving ``spec`` (created warm on first sight).

        Raises ``KeyError`` with the registry's
        :func:`~repro.registry.unknown_name` listing for unknown workload /
        cleaner names — the front end maps that to a structured 400.
        """
        memo_key = _route_memo_key(spec)
        with self._lock:
            known = self._route_memo.get(memo_key)
            if known is not None:
                shard = self._shards[known]
                shard.session_reuses += 1
                return shard
        session = self._build_session(spec)
        window_spec = normalize_window_spec(getattr(spec, "window", None))
        fingerprint = _shard_fingerprint(session, spec, window_spec)
        key = ShardKey(
            workload=(spec.workload or INLINE).lower(),
            cleaner=spec.cleaner.lower(),
            fingerprint=fingerprint,
        )
        with self._lock:
            shard = self._shards.get(key)
            if shard is None:
                if len(self._shards) >= self.max_shards:
                    raise PoolExhaustedError(len(self._shards), self.max_shards)
                shard = Shard(key, session, window_spec=window_spec)
                self._shards[key] = shard
            else:
                shard.session_reuses += 1
            self._route_memo[memo_key] = key
            while len(self._route_memo) > self.max_route_memo:
                self._route_memo.popitem(last=False)
        return shard

    def _build_session(
        self, spec: Union[CleanRequestSpec, DeltaRequestSpec]
    ) -> CleaningSession:
        rules, config = self._rules_and_config(spec)
        options = getattr(spec, "options", {}) or {}
        try:
            cleaner = get_cleaner(spec.cleaner, **options)
        except (TypeError, ValueError) as exc:
            # an unknown or out-of-range factory option is the client's
            # mistake, not a server bug: surface it as a 400, not a 500
            raise BadRequestError(
                f"bad options for the {spec.cleaner!r} cleaner: {exc}"
            ) from exc
        return CleaningSession(
            rules=rules,
            config=config,
            cleaner=cleaner,
            detectors=getattr(spec, "detectors", None),
        )

    def _rules_and_config(
        self, spec: Union[CleanRequestSpec, DeltaRequestSpec]
    ) -> tuple:
        if spec.workload is not None:
            generator = get_workload_generator(
                spec.workload, tuples=spec.tuples, seed=spec.seed
            )
            rules = generator.rules()
            config = spec.config or recommended_config(spec.workload)
        else:
            rules = list(spec.rules or [])
            config = spec.config or MLNCleanConfig()
        if spec.config_overrides:
            config = replace(config, **spec.config_overrides)
        return rules, config

    # ------------------------------------------------------------------
    # data resolution (worker-thread side: may generate tables)
    # ------------------------------------------------------------------
    def resolve_clean_inputs(
        self, spec: CleanRequestSpec
    ) -> tuple[Table, Optional[GroundTruth]]:
        """The dirty table and ground truth one clean request runs on.

        Workload-based requests share generated instances through a
        per-profile cache, so twenty concurrent requests against the same
        (workload, size, error profile) corrupt the table once, not twenty
        times.
        """
        if spec.table is not None:
            return spec.table, spec.ground_truth
        key = (
            spec.workload.lower(),
            spec.tuples,
            spec.error_rate,
            spec.replacement_ratio,
            spec.seed,
            spec.error_seed,
        )
        with self._lock:
            instance = self._instances.get(key)
        if instance is None:
            from repro.experiments.harness import prepare_instance

            built = prepare_instance(
                spec.workload,
                tuples=spec.tuples,
                error_rate=spec.error_rate,
                replacement_ratio=spec.replacement_ratio,
                seed=spec.seed,
                error_seed=spec.error_seed,
            )
            with self._lock:
                instance = self._instances.setdefault(key, built)
                while len(self._instances) > self.max_instances:
                    self._instances.popitem(last=False)
        return instance.dirty, instance.ground_truth

    def schema_for(self, spec: DeltaRequestSpec) -> list:
        """The attribute schema of a delta shard's stream.

        Inline requests carry it; workload requests derive it from a
        one-tuple clean build (the schema does not depend on the size).
        """
        if spec.schema:
            return list(spec.schema)
        generator = get_workload_generator(spec.workload, tuples=1, seed=spec.seed)
        return generator.build().clean.attributes

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def shards(self) -> list:
        with self._lock:
            return list(self._shards.values())

    def stats(self) -> list:
        return [shard.stats() for shard in self.shards()]


def _route_memo_key(spec: Union[CleanRequestSpec, DeltaRequestSpec]) -> str:
    """The request fields that determine which shard serves it.

    Everything :meth:`SessionPool._build_session` consumes *except* size and
    seed: a registered workload's rule set is declared on its generator
    class, so it does not depend on either — which is what makes
    memoization sound without building anything.
    """
    payload = {
        "workload": spec.workload.lower() if spec.workload else None,
        "cleaner": spec.cleaner.lower(),
        "options": getattr(spec, "options", {}) or {},
        # observability-only knobs (config.trace) are output-invariant, so
        # requests differing only there share a shard (and its warm caches)
        "config_overrides": {
            key: value
            for key, value in (spec.config_overrides or {}).items()
            if key not in OBSERVABILITY_FIELDS
        },
        "config": spec.config.identity_dict() if spec.config is not None else None,
        "detectors": detector_specs_identity(getattr(spec, "detectors", None)),
        "window": normalize_window_spec(getattr(spec, "window", None)),
        "rules": (
            rules_to_strings(spec.rules)
            if spec.workload is None and spec.rules
            else None
        ),
        # an inline stream's schema shapes its engine, so two streams with
        # the same rules but different schemas must not share a shard
        "schema": list(getattr(spec, "schema", None) or []) or None,
    }
    return json.dumps(payload, sort_keys=True, default=str)


def _shard_fingerprint(
    session: CleaningSession,
    spec: Union[CleanRequestSpec, DeltaRequestSpec],
    window_spec: Optional[dict],
) -> str:
    """Session fingerprint + request-only identity (options, window, schema)."""
    payload = {
        "session": session.fingerprint(),
        "options": getattr(spec, "options", {}) or {},
        "window": window_spec,
        "schema": list(getattr(spec, "schema", None) or []) or None,
    }
    # default=str tolerates non-JSON option values from in-process callers
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
