"""A small blocking client for the cleaning service (stdlib ``http.client``).

The helper the examples, tests and the CI smoke driver use::

    from repro.service.client import ServiceClient

    client = ServiceClient(port=8735)
    job = client.clean(workload="hospital-sample", tuples=48, error_rate=0.1)
    report_json = job["result"]["report"]          # a CleaningReport JSON dict
    print(client.stats()["latency"])

Each call opens its own connection (the server speaks one request per
connection), so one client instance is safe to share across threads — which
is exactly how the smoke driver fires its concurrent requests.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import uuid
from typing import Callable, Optional


def _parse_retry_after(raw: Optional[str]) -> Optional[float]:
    """A ``Retry-After`` header's value in seconds, or None.

    Servers (and middleboxes) emit all sorts of garbage here — empty
    strings, HTTP-dates, negative numbers.  A malformed or negative hint
    must never crash the client's error path; it is simply treated as
    absent and the normal backoff schedule applies.
    """
    if not raw:
        return None
    try:
        value = float(raw)
    except (TypeError, ValueError):
        return None
    return value if value >= 0 else None


class ServiceError(RuntimeError):
    """A non-2xx response, with the server's structured JSON attached."""

    def __init__(
        self, status: int, payload: dict, retry_after: Optional[float] = None
    ):
        error = payload.get("error", {}) if isinstance(payload, dict) else {}
        message = error.get("message") or json.dumps(payload)[:500]
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload
        #: the server's ``Retry-After`` hint in seconds (503 responses)
        self.retry_after = retry_after


class ServiceClient:
    """Blocking JSON client for one service endpoint.

    ``retries`` (opt-in, default 0) makes the client ride out transient
    unavailability: 503 responses (overload, draining, an exhausted session
    pool) and connection failures (a service restarting) are retried with bounded exponential backoff — ``backoff * 2**attempt``
    capped at ``max_backoff``, floored at the server's ``Retry-After`` hint
    when one was sent, plus up to ``jitter`` fractional randomization so a
    herd of clients does not retry in lockstep.  400s and genuine 500s are
    never retried.  ``sleep`` and ``rng`` are injectable for deterministic
    tests (a fake clock asserts the exact schedule).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        timeout: float = 600.0,
        retries: int = 0,
        backoff: float = 0.25,
        max_backoff: float = 8.0,
        jitter: float = 0.2,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.jitter = jitter
        self._sleep = sleep
        self._rng = rng or random.Random()

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        deadline: Optional[float] = None,
    ) -> dict:
        """One HTTP exchange; raises :class:`ServiceError` on non-2xx.

        With ``retries`` configured, 503s and connection errors are retried
        on the backoff schedule documented on the class; the final attempt's
        error propagates unchanged.  ``deadline`` is an end-to-end budget in
        seconds for the *whole* call, retries included: each attempt sends
        the remaining budget as ``X-Repro-Deadline``, and once it is spent the
        client raises a local 504 instead of retrying further.
        """
        started = time.monotonic() if deadline is not None else 0.0
        for attempt in range(self.retries + 1):
            remaining = None
            if deadline is not None:
                remaining = deadline - (time.monotonic() - started)
                if remaining <= 0:
                    raise ServiceError(
                        504,
                        {
                            "error": {
                                "type": "deadline_exceeded",
                                "message": f"deadline of {deadline:g}s spent "
                                           f"after {attempt} attempt(s)",
                            }
                        },
                    )
            try:
                # the kwarg is only passed when a budget is set: tests (and
                # callers) substituting _request_once with the historical
                # (method, path, payload) signature keep working
                if remaining is not None:
                    return self._request_once(
                        method, path, payload, deadline=remaining
                    )
                return self._request_once(method, path, payload)
            except ServiceError as exc:
                if exc.status != 503 or attempt >= self.retries:
                    raise
                self._sleep(self.retry_delay(attempt, exc.retry_after))
            except ConnectionError:
                if attempt >= self.retries:
                    raise
                self._sleep(self.retry_delay(attempt, None))
        raise AssertionError("unreachable")  # pragma: no cover

    def retry_delay(self, attempt: int, retry_after: Optional[float]) -> float:
        """The backoff before retry number ``attempt + 1`` (0-based)."""
        delay = min(self.max_backoff, self.backoff * (2**attempt))
        if retry_after is not None:
            delay = max(delay, float(retry_after))
        if self.jitter:
            delay *= 1.0 + self._rng.random() * self.jitter
        return delay

    def _request_once(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        deadline: Optional[float] = None,
    ) -> dict:
        timeout = self.timeout
        if deadline is not None:
            timeout = min(timeout, max(deadline, 0.001))
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout
        )
        try:
            body = json.dumps(payload).encode("utf-8") if payload is not None else None
            headers = {"Content-Type": "application/json"} if body else {}
            if deadline is not None:
                headers["X-Repro-Deadline"] = f"{deadline:.6f}"
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
            if response.status >= 400:
                raise ServiceError(
                    response.status,
                    decoded,
                    retry_after=_parse_retry_after(
                        response.getheader("Retry-After")
                    ),
                )
            return decoded
        finally:
            connection.close()

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def clean(
        self,
        *,
        wait: bool = True,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
        **fields,
    ) -> dict:
        """``POST /clean``; returns the job object from the response.

        Keyword fields mirror the wire format
        (:data:`~repro.service.codec.CLEAN_REQUEST_FIELDS`):
        ``workload``/``tuples``/``error_rate``/... or ``table``+``rules``,
        plus ``cleaner``, ``options``, ``config`` (override mapping),
        ``detectors`` and ``include_report``.  Any other field (e.g. the
        retired ``stages``) is answered with a 400 naming it.
        With ``wait=True`` (default) the returned job carries ``result``.
        ``deadline`` bounds the whole call, retries included (see
        :meth:`request`).
        """
        payload = {**fields, "wait": wait}
        if timeout is not None:
            payload["timeout"] = timeout
        return self.request("POST", "/clean", payload, deadline=deadline)["job"]

    def deltas(
        self,
        deltas: list,
        *,
        wait: bool = True,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
        idempotency_key: Optional[str] = None,
        **fields,
    ) -> dict:
        """``POST /deltas``; ``deltas`` is a list of op-tagged dicts.

        ``idempotency_key`` makes at-least-once retries exactly-once: the
        shard remembers its last 512 applied keys in memory, so a batch
        re-sent after a lost acknowledgement is deduplicated instead of
        applied twice (a service restart forgets the keys).  When the client is configured with ``retries``
        and no key is given, one is generated — the payload is built once,
        so every retry of this call re-sends the *same* key.
        """
        if idempotency_key is None and self.retries > 0:
            idempotency_key = uuid.uuid4().hex
        payload = {**fields, "deltas": deltas, "wait": wait}
        if idempotency_key is not None:
            payload["idempotency_key"] = idempotency_key
        if timeout is not None:
            payload["timeout"] = timeout
        return self.request("POST", "/deltas", payload, deadline=deadline)["job"]

    def job(self, job_id: str) -> dict:
        return self.request("GET", f"/jobs/{job_id}")["job"]

    def wait_for(self, job_id: str, timeout: float = 300.0, poll: float = 0.1) -> dict:
        """Poll ``GET /jobs/<id>`` until the job finishes (done or failed)."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["status"] in ("done", "failed"):
                return job
            if time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still {job['status']} after {timeout}s")
            time.sleep(poll)

    def healthz(self) -> dict:
        return self.request("GET", "/healthz")

    def stats(self) -> dict:
        return self.request("GET", "/stats")

    def wait_until_healthy(self, timeout: float = 30.0, poll: float = 0.2) -> dict:
        """Block until ``/healthz`` answers (server boot synchronisation)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.healthz()
            except (ConnectionError, OSError):
                if time.monotonic() >= deadline:
                    raise
                time.sleep(poll)
