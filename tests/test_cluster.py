"""Tests for the service client's retry policy and the server's SIGTERM exit.

:class:`~repro.service.ServiceClient` retries 503 answers and lost
connections with capped exponential backoff, honours ``Retry-After`` as a
floor and never retries other errors; ``python -m repro.service serve``
drains and exits 0 on SIGTERM.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service import ServiceClient, ServiceError


# ----------------------------------------------------------------------
# client retries: bounded exponential backoff on 503s and lost connections
# ----------------------------------------------------------------------
class TestClientRetries:
    class _FlakyTransport:
        def __init__(self, failures):
            self.failures = list(failures)
            self.calls = 0

        def __call__(self, method, path, payload=None):
            self.calls += 1
            if self.failures:
                raise self.failures.pop(0)
            return {"ok": True}

    class _FixedRng:
        def random(self):
            return 1.0  # jitter multiplies by exactly (1 + jitter)

    def make_client(self, failures, **kwargs):
        slept = []
        client = ServiceClient(
            retries=kwargs.pop("retries", 3),
            backoff=kwargs.pop("backoff", 1.0),
            max_backoff=kwargs.pop("max_backoff", 8.0),
            jitter=kwargs.pop("jitter", 0.0),
            sleep=slept.append,
            **kwargs,
        )
        transport = self._FlakyTransport(failures)
        client._request_once = transport
        return client, transport, slept

    def test_retries_503_with_exponential_backoff(self):
        client, transport, slept = self.make_client(
            [ServiceError(503, {}), ServiceError(503, {})]
        )
        assert client.request("POST", "/deltas") == {"ok": True}
        assert transport.calls == 3
        assert slept == [1.0, 2.0]  # backoff * 2**attempt, no jitter

    def test_retry_after_floors_the_delay(self):
        client, _transport, slept = self.make_client(
            [ServiceError(503, {}, retry_after=5.0)]
        )
        client.request("GET", "/healthz")
        assert slept == [5.0]  # the server's hint beats backoff * 2**0

    def test_backoff_is_capped(self):
        client, _transport, slept = self.make_client(
            [ServiceError(503, {})] * 5, retries=5, backoff=4.0, max_backoff=6.0
        )
        client.request("GET", "/stats")
        assert slept == [4.0, 6.0, 6.0, 6.0, 6.0]

    def test_jitter_stretches_the_delay(self):
        client, _transport, slept = self.make_client(
            [ServiceError(503, {})], jitter=0.5, rng=self._FixedRng()
        )
        client.request("GET", "/healthz")
        assert slept == [1.5]  # 1.0 * (1 + 1.0 * 0.5)

    def test_connection_errors_are_retried(self):
        client, transport, slept = self.make_client(
            [ConnectionRefusedError("boom")]
        )
        assert client.request("GET", "/healthz") == {"ok": True}
        assert transport.calls == 2 and slept == [1.0]

    def test_non_503_is_never_retried(self):
        client, transport, _slept = self.make_client(
            [ServiceError(400, {"error": {"message": "bad"}})]
        )
        with pytest.raises(ServiceError):
            client.request("POST", "/clean")
        assert transport.calls == 1

    def test_exhausted_retries_raise_the_last_error(self):
        client, transport, slept = self.make_client(
            [ServiceError(503, {})] * 3, retries=2
        )
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/deltas")
        assert excinfo.value.status == 503
        assert transport.calls == 3 and len(slept) == 2

    def test_default_client_does_not_retry(self):
        client = ServiceClient()
        client._request_once = self._FlakyTransport([ServiceError(503, {})])
        with pytest.raises(ServiceError):
            client.request("GET", "/healthz")

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            ServiceClient(retries=-1)


# ----------------------------------------------------------------------
# graceful shutdown of the real server process
# ----------------------------------------------------------------------
def test_service_serve_exits_zero_on_sigterm():
    with socket.socket() as probe:  # bound, probed, released: a free port
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = (
        f"{src}{os.pathsep}{env['PYTHONPATH']}" if env.get("PYTHONPATH") else src
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve", "--port", str(port)],
        env=env,
    )
    try:
        ServiceClient(port=port).wait_until_healthy()
        proc.terminate()
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
