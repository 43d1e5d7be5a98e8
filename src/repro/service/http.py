"""The stdlib-only HTTP front end of the cleaning service.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no
framework, no dependency — speaking JSON on five routes:

* ``POST /clean``    — submit a cleaning request (``wait`` defaults true),
* ``POST /deltas``   — submit deltas against a shard's stream,
* ``GET /jobs/<id>`` — poll a job,
* ``GET /healthz``   — liveness,
* ``GET /stats``     — queue depth, latency percentiles, per-shard
  throughput, distance-cache counters,
* ``GET /metrics``   — the same signals in Prometheus text format
  (service-scoped instruments plus the process-wide registry).

Responses always carry ``Connection: close`` (one request per connection —
clients are expected to be many and short-lived, and it keeps the parser
honest).  Error mapping lives in :func:`_error_response`: malformed bodies
and unknown registry names answer structured ``400`` JSON (with the
:func:`~repro.registry.unknown_name` listing), a full queue answers ``503``
with ``Retry-After``, and only genuine bugs surface as ``500``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import signal
import threading
from typing import Optional

from repro.service.codec import decode_clean_request, decode_delta_request
from repro.service.errors import (
    BadRequestError,
    PoolExhaustedError,
    ServiceDrainingError,
    ServiceOverloadedError,
)
from repro.service.jobs import JobStatus
from repro.service.service import CleaningService, ServiceConfig

log = logging.getLogger("repro.service")

#: request bodies beyond this answer 413 (inline tables can be large, but
#: a bounded service must bound its inputs)
MAX_BODY_BYTES = 32 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _error_payload(error_type: str, message: str) -> dict:
    return {"error": {"type": error_type, "message": message}}


def _parse_deadline_header(headers: Optional[dict]) -> Optional[float]:
    """The request's ``X-Repro-Deadline`` budget in seconds, or None.

    A malformed budget must not fail an otherwise-valid request; like a
    malformed ``Retry-After``, it is treated as absent.
    """
    raw = (headers or {}).get("x-repro-deadline")
    if raw is None:
        return None
    try:
        return float(raw)
    except (TypeError, ValueError):
        return None


def _failure_status(error_kind: Optional[str]) -> int:
    """Map a failed job's ``error_kind`` to its HTTP status.

    ``bad_request`` is the client's fault (400), ``deadline`` means its
    budget ran out (504); everything else is a server-side 500.
    """
    return {"bad_request": 400, "deadline": 504}.get(error_kind, 500)


class ServiceHTTPServer:
    """Serves one :class:`CleaningService` over HTTP on the running loop."""

    def __init__(
        self,
        service: CleaningService,
        host: str = "127.0.0.1",
        port: int = 8080,
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> "ServiceHTTPServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        # port 0 asks the OS for an ephemeral port; reflect the real one
        self.port = self._server.sockets[0].getsockname()[1]
        log.info("repro.service listening on http://%s:%d", self.host, self.port)
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        status, payload = 500, _error_payload("internal", "unhandled error")
        extra_headers: dict = {}
        try:
            parsed = await self._read_request(reader)
            if parsed is None:
                writer.close()
                return
            method, path, body, headers = parsed
            status, payload, extra_headers = await self._dispatch(
                method, path, body, headers
            )
        except asyncio.IncompleteReadError:
            writer.close()
            return
        except _PayloadTooLarge:
            status, payload = 413, _error_payload(
                "payload_too_large", f"request bodies are bounded at {MAX_BODY_BYTES} bytes"
            )
        except ValueError as exc:
            status, payload = 400, _error_payload("bad_request", str(exc))
        except Exception as exc:  # noqa: BLE001 - connection isolation boundary
            log.exception("unhandled error serving a request")
            status, payload = 500, _error_payload(
                "internal", f"{type(exc).__name__}: {exc}"
            )
        try:
            await self._write_response(writer, status, payload, extra_headers)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) < 2:
            raise ValueError(f"malformed request line {request_line!r}")
        method, path = parts[0].upper(), parts[1]
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise ValueError("malformed Content-Length header") from None
        if length > MAX_BODY_BYTES:
            raise _PayloadTooLarge()
        body = await reader.readexactly(length) if length > 0 else b""
        return method, path, body, headers

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        payload,
        extra_headers: Optional[dict] = None,
    ) -> None:
        # dict payloads are JSON; str payloads (the /metrics exposition)
        # go out as Prometheus text
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        headers = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            headers.append(f"{name}: {value}")
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, body: bytes, headers: Optional[dict] = None
    ):
        headers = headers or {}
        path = path.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            return 200, self.service.healthz(), {}
        if path == "/stats" and method == "GET":
            return 200, self.service.stats(), {}
        if path == "/metrics" and method == "GET":
            return 200, self.service.metrics_text(), {}
        if path.startswith("/jobs/") and method == "GET":
            job = self.service.job(path[len("/jobs/"):])
            if job is None:
                return 404, _error_payload("unknown_job", f"no job at {path}"), {}
            return 200, {"job": job.as_json_dict()}, {}
        if path in ("/clean", "/deltas"):
            if method != "POST":
                return 405, _error_payload("method_not_allowed", f"{path} is POST-only"), {}
            return await self._submit(path, body, headers)
        return 404, _error_payload("not_found", f"no route {method} {path}"), {}

    async def _submit(self, path: str, body: bytes, headers: Optional[dict] = None):
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, _error_payload("bad_json", f"request body is not JSON: {exc}"), {}
        if not isinstance(payload, dict):
            return 400, _error_payload("bad_request", "the request body must be a JSON object"), {}
        wait = bool(payload.pop("wait", True))
        try:
            timeout = float(payload.pop("timeout", 300.0))
        except (TypeError, ValueError):
            return 400, _error_payload("bad_request", "'timeout' must be a number"), {}
        default_seed = self.service.config.default_seed
        if default_seed is not None and "seed" not in payload:
            payload["seed"] = default_seed
        request_id = (headers or {}).get("x-repro-request-id")
        budget = _parse_deadline_header(headers)
        if budget is not None and budget <= 0:
            return 504, _error_payload(
                "deadline_exceeded",
                "the request's deadline budget was already spent on arrival",
            ), {}
        try:
            if path == "/clean":
                spec = decode_clean_request(payload)
            else:
                spec = decode_delta_request(payload)
            job = await self.service.submit(
                spec, request_id=request_id, budget=budget
            )
        except BadRequestError as exc:
            return 400, _error_payload("bad_request", str(exc)), {}
        except KeyError as exc:
            # registry lookups raise KeyError carrying the unknown_name()
            # listing; surface it as a structured 400, never a traceback
            message = exc.args[0] if exc.args else str(exc)
            return 400, _error_payload("unknown_name", str(message)), {}
        except ServiceOverloadedError as exc:
            return 503, _error_payload("overloaded", str(exc)), {"Retry-After": "1"}
        except ServiceDrainingError as exc:
            return 503, _error_payload("draining", str(exc)), {"Retry-After": "1"}
        except PoolExhaustedError as exc:
            return 503, _error_payload("pool_exhausted", str(exc)), {"Retry-After": "1"}
        if wait:
            wait_timeout = timeout if budget is None else min(timeout, budget)
            try:
                await self.service.wait(job.id, wait_timeout)
            except asyncio.TimeoutError:
                if job.expired():
                    # nobody is waiting anymore; the job stays addressable
                    # via /jobs/<id> but this request reports its 504
                    return 504, {"job": job.as_json_dict(include_result=False)}, {}
                return 202, {"job": job.as_json_dict(include_result=False)}, {}
        if job.status is JobStatus.DONE:
            return 200, {"job": job.as_json_dict()}, {}
        if job.status is JobStatus.FAILED:
            # apply-time validation failures (e.g. a delta targeting an
            # unknown tuple) are the client's fault; 504 marks a spent
            # deadline; 500 stays reserved for genuine bugs, per the
            # errors.py taxonomy
            return _failure_status(job.error_kind), {"job": job.as_json_dict()}, {}
        return 202, {"job": job.as_json_dict(include_result=False)}, {}


class _PayloadTooLarge(Exception):
    pass


# ----------------------------------------------------------------------
# process entry points
# ----------------------------------------------------------------------
async def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    config: Optional[ServiceConfig] = None,
    drain_timeout: float = 30.0,
) -> None:
    """Run a service + front end until SIGTERM/SIGINT, then drain and exit.

    Graceful shutdown: the first signal flips the service into draining
    (new submissions answer 503), queued jobs run to completion (bounded by
    ``drain_timeout``), and only then does the coroutine return, letting
    the process exit 0.
    """
    service = CleaningService(config)
    await service.start()
    http = ServiceHTTPServer(service, host, port)
    await http.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
    try:
        await stop.wait()
        log.info("shutdown signal received; draining (%d pending)", service.pending)
        await service.drain(timeout=drain_timeout)
        log.info("drained; shutting down")
    finally:
        for signum in installed:
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.remove_signal_handler(signum)
        await http.stop()
        await service.stop()


class ServiceServer:
    """A service + HTTP front end on a background thread (tests, examples).

    ``port=0`` binds an ephemeral port; the real one is available as
    ``server.port`` after :meth:`start` returns.  The wrapped
    :class:`CleaningService` is reachable as ``server.service`` for
    in-process assertions (e.g. comparing a shard's stream state).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[ServiceConfig] = None,
    ):
        self.host = host
        self.port = port
        self.config = config
        self.service: Optional[CleaningService] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None

    def start(self) -> "ServiceServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-service-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("the service server did not start within 30s")
        if self._startup_error is not None:
            raise RuntimeError("the service server failed to start") from self._startup_error
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        service = CleaningService(self.config)
        await service.start()
        http = ServiceHTTPServer(service, self.host, self.port)
        await http.start()
        self.port = http.port
        self.service = service
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            await http.stop()
            await service.stop()
