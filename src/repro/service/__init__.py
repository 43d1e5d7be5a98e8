"""``repro.service`` — a concurrent, sharded cleaning service.

The library's entry points up to here are single blocking calls; this
sub-package turns them into something that can take traffic::

    front end (HTTP, stdlib)  →  bounded asyncio job queue
                              →  SessionPool: one warm CleaningSession per
                                 (workload, cleaner, config-fingerprint) shard
                              →  per-shard worker: clean jobs run serially on
                                 the warm session; queued delta jobs coalesce
                                 into one StreamingMLNClean micro-batch tick

Module map:

* :mod:`repro.service.codec`     — wire format: request specs, JSON codecs
  (the deterministic report signatures live beside the report, in
  :mod:`repro.core.report`, and are re-exported here),
* :mod:`repro.service.jobs`      — jobs, statuses, the bounded job store,
* :mod:`repro.service.pool`      — shard keys and the warm session pool,
* :mod:`repro.service.coalescer` — micro-batch folding + demultiplexing,
* :mod:`repro.service.service`   — the asyncio control plane,
* :mod:`repro.service.http`      — the stdlib HTTP front end
  (``python -m repro.service serve``),
* :mod:`repro.service.client`    — the blocking client helper,
* :mod:`repro.service.cleaner`   — the ``"service"`` registered cleaner
  (routes a normal session run through the service; the
  ``service_replay`` experiment asserts it changes nothing).

The headline invariant, asserted by ``tests/test_service.py`` on all four
registered workloads: N requests submitted concurrently produce byte-
identical cleaning output (tables, stage counts, dedup, accuracy — every
non-wall-clock byte of ``CleaningReport.to_json_dict()``) to the same N
requests run serially through standalone sessions.
"""

from repro.core.report import (
    MASKED_REPORT_KEYS,
    canonical_json,
    report_signature,
    report_signature_dict,
)
from repro.service.cleaner import ServiceCleaner
from repro.service.client import ServiceClient, ServiceError
from repro.service.codec import (
    CleanRequestSpec,
    DeltaRequestSpec,
    decode_clean_request,
    decode_delta_request,
)
from repro.service.coalescer import TickPlan, plan_tick
from repro.service.errors import (
    BadRequestError,
    PoolExhaustedError,
    ServiceOverloadedError,
)
from repro.service.http import ServiceHTTPServer, ServiceServer, serve
from repro.service.jobs import Job, JobStatus, JobStore
from repro.service.pool import SessionPool, Shard, ShardKey
from repro.service.service import CleaningService, ServiceConfig

__all__ = [
    "BadRequestError",
    "CleanRequestSpec",
    "CleaningService",
    "DeltaRequestSpec",
    "Job",
    "JobStatus",
    "JobStore",
    "MASKED_REPORT_KEYS",
    "PoolExhaustedError",
    "ServiceCleaner",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceHTTPServer",
    "ServiceOverloadedError",
    "ServiceServer",
    "SessionPool",
    "Shard",
    "ShardKey",
    "TickPlan",
    "canonical_json",
    "decode_clean_request",
    "decode_delta_request",
    "plan_tick",
    "report_signature",
    "report_signature_dict",
    "serve",
]
