"""Tests for the service's fault handling.

They cover how the single-process service behaves under the faults a client
sees: a delta request retried with its idempotency key applies exactly once,
a spent deadline fails with 504 before any work runs, and a garbled
``Retry-After`` header is treated as absent.
"""

from __future__ import annotations

import asyncio
import http.client
import http.server
import json
import threading

import pytest

from repro.core.report import table_to_json_dict
from repro.experiments.harness import prepare_instance
from repro.service import (
    CleaningService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceServer,
    decode_delta_request,
    report_signature,
)
from repro.service.client import _parse_retry_after
from repro.service.codec import canonical_json
from repro.service.http import _failure_status, _parse_deadline_header
from repro.streaming import DeltaBatch, Insert, StreamingMLNClean
from repro.workloads.registry import get_workload_generator, recommended_config


def run_async(coro):
    return asyncio.run(coro)


def hai_delta_batches(tuples: int = 32, size: int = 8) -> list:
    """A small HAI stream as lists of inserts, ``size`` tuples each."""
    instance = prepare_instance("hai", tuples=tuples)
    schema = instance.dirty.attributes
    rows = list(instance.dirty.rows)
    return [
        [Insert(values={a: r[a] for a in schema}, tid=r.tid) for r in rows[i:i + size]]
        for i in range(0, len(rows), size)
    ]


def hai_delta_payload(deltas, key=None) -> dict:
    payload = {
        "workload": "hai",
        "seed": 7,
        "deltas": [{"op": "insert", "values": dict(d.values), "tid": d.tid} for d in deltas],
        "include_table": False,
    }
    if key is not None:
        payload["idempotency_key"] = key
    return payload


def engine_state(engine) -> tuple:
    return (
        report_signature(engine.report()),
        canonical_json(table_to_json_dict(engine.cleaned)),
    )


# ----------------------------------------------------------------------
# idempotent delta application: exactly-once under at-least-once retries
# ----------------------------------------------------------------------
class TestIdempotency:
    def test_same_key_coalesced_into_one_tick_applies_once(self):
        batches = hai_delta_batches()

        async def main():
            async with CleaningService(ServiceConfig(executor_workers=2)) as service:
                specs = [
                    decode_delta_request(hai_delta_payload(batches[0], key="k0"))
                    for _ in range(2)
                ]
                # no awaits between submits: both fold into one tick
                jobs = [await service.submit(s) for s in specs]
                await asyncio.gather(*[service.wait(j.id) for j in jobs])
                assert all(j.status.value == "done" for j in jobs)
                (shard,) = service.pool.shards()
                assert shard.stream.batches_applied == 1
                return engine_state(shard.stream)

        reference = StreamingMLNClean(
            get_workload_generator("hai", tuples=32, seed=7).rules(),
            schema=prepare_instance("hai", tuples=32).dirty.attributes,
            config=recommended_config("hai"),
        )
        reference.apply_batch(DeltaBatch(list(batches[0])))
        assert run_async(main()) == engine_state(reference)

    def test_retry_after_ack_replays_the_original_result(self):
        batches = hai_delta_batches()

        async def main():
            async with CleaningService(ServiceConfig(executor_workers=2)) as service:
                async def send():
                    spec = decode_delta_request(hai_delta_payload(batches[0], key="k0"))
                    job = await service.submit(spec)
                    await service.wait(job.id)
                    assert job.status.value == "done", job.error
                    return job.result

                original = await send()
                replayed = await send()
                assert replayed == original  # the memoized ack, byte for byte
                (shard,) = service.pool.shards()
                assert shard.stream.batches_applied == 1

        run_async(main())


# ----------------------------------------------------------------------
# end-to-end request deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_parse_deadline_header(self):
        assert _parse_deadline_header(None) is None
        assert _parse_deadline_header({}) is None
        assert _parse_deadline_header({"x-repro-deadline": "2.5"}) == 2.5
        # malformed budgets must not fail an otherwise-valid request
        assert _parse_deadline_header({"x-repro-deadline": "whenever"}) is None

    def test_failure_status_taxonomy(self):
        assert _failure_status("bad_request") == 400
        assert _failure_status("deadline") == 504
        assert _failure_status("internal") == 500
        assert _failure_status(None) == 500

    def test_expired_budget_fails_before_execution(self):
        batches = hai_delta_batches()

        async def main():
            async with CleaningService(ServiceConfig(executor_workers=1)) as service:
                spec = decode_delta_request(hai_delta_payload(batches[0]))
                job = await service.submit(spec, budget=0.0)
                await service.wait(job.id)
                assert job.status.value == "failed"
                assert job.error_kind == "deadline"
                assert "deadline" in job.error

        run_async(main())

    def test_deadline_header_maps_to_504_over_http(self):
        batches = hai_delta_batches()
        body = json.dumps(hai_delta_payload(batches[0])).encode("utf-8")
        with ServiceServer(config=ServiceConfig(executor_workers=1)) as server:
            def post(headers):
                conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
                try:
                    conn.request(
                        "POST", "/deltas", body=body,
                        headers={"Content-Type": "application/json", **headers},
                    )
                    response = conn.getresponse()
                    return response.status, json.loads(response.read() or b"{}")
                finally:
                    conn.close()

            status, payload = post({"X-Repro-Deadline": "0"})
            assert status == 504
            assert payload["error"]["type"] == "deadline_exceeded"
            # malformed budget: treated as absent, the request just runs
            status, payload = post({"X-Repro-Deadline": "whenever"})
            assert status == 200 and payload["job"]["status"] == "done"

    def test_client_raises_a_local_504_once_the_budget_is_spent(self):
        client = ServiceClient(port=1)  # never reached
        with pytest.raises(ServiceError) as err:
            client.request("GET", "/healthz", deadline=0.0)
        assert err.value.status == 504
        assert err.value.payload["error"]["type"] == "deadline_exceeded"


# ----------------------------------------------------------------------
# Retry-After parsing: garbage from servers/middleboxes never crashes
# ----------------------------------------------------------------------
class TestRetryAfterParsing:
    @pytest.mark.parametrize("raw", [None, "", "soon", "2 seconds", "-1", "-0.5"])
    def test_malformed_or_negative_is_treated_as_absent(self, raw):
        assert _parse_retry_after(raw) is None

    @pytest.mark.parametrize("raw,expected", [("0", 0.0), ("1", 1.0), ("2.5", 2.5)])
    def test_well_formed_values_parse(self, raw, expected):
        assert _parse_retry_after(raw) == expected

    def test_client_rides_out_garbage_retry_after_headers(self):
        responses = [
            (503, {"Retry-After": "soon"}, b"{}"),
            (503, {"Retry-After": "-2"}, b"{}"),
            (200, {}, b'{"ok": true}'),
        ]

        class Canned(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                status, headers, body = responses.pop(0)
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Canned)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(
                port=server.server_address[1], retries=3, backoff=0.01, jitter=0.0
            )
            assert client.request("GET", "/anything") == {"ok": True}
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
