"""Service-level error types and their HTTP mapping.

Three failure classes cover the front end:

* :class:`BadRequestError` — the request itself is malformed (shape,
  types, impossible combinations).  Registry lookups raising ``KeyError``
  (unknown workload / cleaner / backend names) are treated the same way:
  both map to a structured ``400`` JSON body that carries the
  :func:`repro.registry.unknown_name`-style listing instead of a 500
  traceback.
* :class:`ServiceOverloadedError` — the bounded job queue is full; maps to
  ``503`` with a ``Retry-After`` hint.  Backpressure is a *feature*: the
  service sheds load loudly instead of queueing unboundedly.
* anything else — a genuine bug; maps to ``500`` with the exception type
  (no traceback leaves the process).
"""

from __future__ import annotations


class BadRequestError(ValueError):
    """The request cannot be executed as stated (HTTP 400)."""


class ServiceOverloadedError(RuntimeError):
    """The bounded job queue is full; retry later (HTTP 503)."""

    def __init__(self, pending: int, max_pending: int):
        super().__init__(
            f"service overloaded: {pending} jobs pending, "
            f"bounded at {max_pending}; retry later"
        )
        self.pending = pending
        self.max_pending = max_pending


class ServiceDrainingError(RuntimeError):
    """The service is draining for shutdown (HTTP 503).

    New submissions are refused while queued jobs finish; a retrying client
    (``ServiceClient(retries=...)``) rides it out, landing on the restarted
    service.
    """

    def __init__(self) -> None:
        super().__init__("service is draining; retry later")


class PoolExhaustedError(RuntimeError):
    """Too many distinct warm shards; shed the request (HTTP 503).

    Shards hold live state (warm sessions, streaming engines with their
    tables), so they cannot be silently evicted the way pure caches can —
    a request that would create one beyond the bound is refused instead.
    """

    def __init__(self, shards: int, max_shards: int):
        super().__init__(
            f"session pool exhausted: {shards} warm shards, bounded at "
            f"{max_shards}; reuse an existing workload/cleaner/config "
            f"combination or retry later"
        )
        self.shards = shards
        self.max_shards = max_shards
