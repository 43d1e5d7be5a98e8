"""Tests for fault plans, the fault injector and the service's fault handling.

Two groups live here.  The first covers :mod:`repro.faults` as a library:
plans round-trip byte for byte and validate loudly, and the injector makes
the same decisions for the same seed.  The second covers how the
single-process service behaves under the faults a client sees: a delta
request retried with its idempotency key applies exactly once, a spent
deadline fails with 504 before any work runs, and a garbled
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
from repro.faults import (
    INJECTOR,
    PLAN_ENV_VAR,
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedCrash,
    InjectedFault,
    activate_from_env,
)
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


@pytest.fixture(autouse=True)
def _pristine_injector():
    """No plan leaks into (or out of) any test in this module."""
    INJECTOR.deactivate()
    yield
    INJECTOR.deactivate()


# ----------------------------------------------------------------------
# fault plans: pure data, byte-stable round trips, loud validation
# ----------------------------------------------------------------------
class TestFaultPlan:
    def sample_plan(self) -> FaultPlan:
        return FaultPlan(
            seed=42,
            rules=(
                FaultRule(point="wal.fsync", action="fail", match={"shard": "ab"}, nth=3),
                FaultRule(point="httpclient.request", action="drop",
                          match={"path": "/deltas"}, nth=2, times=2),
                FaultRule(point="worker.heartbeat", action="stall", times=None),
                FaultRule(point="wal.append", action="delay", delay_s=0.5, every=4),
                FaultRule(point="snapshot.write", action="corrupt", probability=0.5),
            ),
        )

    def test_json_round_trip_is_byte_identical(self):
        plan = self.sample_plan()
        text = plan.to_json()
        restored = FaultPlan.from_json(text)
        assert restored == plan
        assert restored.to_json() == text

    def test_defaults_are_omitted_from_the_wire_form(self):
        rule = FaultRule(point="wal.fsync")
        assert rule.to_dict() == {"point": "wal.fsync", "action": "fail"}
        assert FaultRule.from_dict(rule.to_dict()) == rule

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"point": ""},
            {"point": "p", "action": "explode"},
            {"point": "p", "match": ["not", "a", "dict"]},
            {"point": "p", "nth": 0},
            {"point": "p", "times": 0},
            {"point": "p", "every": 0},
            {"point": "p", "probability": 1.5},
            {"point": "p", "probability": -0.1},
            {"point": "p", "delay_s": -1.0},
        ],
    )
    def test_validation_rejects_garbage(self, kwargs):
        with pytest.raises(ValueError):
            FaultRule(**kwargs)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fault-rule fields"):
            FaultRule.from_dict({"point": "p", "acton": "fail"})

    @pytest.mark.parametrize(
        "text",
        ["{not json", "[]", '{"rules": "nope"}', '{"rules": ["nope"]}'],
    )
    def test_from_json_rejects_malformed_plans(self, text):
        with pytest.raises(ValueError):
            FaultPlan.from_json(text)

    def test_fires_on_windows(self):
        contiguous = FaultRule(point="p", nth=2, times=2)
        assert [contiguous.fires_on(h) for h in range(1, 6)] == [
            False, True, True, False, False,
        ]
        unlimited = FaultRule(point="p", nth=3, times=None)
        assert [unlimited.fires_on(h) for h in range(1, 6)] == [
            False, False, True, True, True,
        ]
        periodic = FaultRule(point="p", every=3)
        assert [periodic.fires_on(h) for h in range(1, 8)] == [
            False, False, True, False, False, True, False,
        ]

    def test_match_is_exact_or_prefix(self):
        rule = FaultRule(point="p", match={"shard": "abcd", "path": "/deltas"})
        assert rule.matches({"shard": "abcd1234ef", "path": "/deltas"})
        assert rule.matches({"shard": "abcd", "path": "/deltas"})
        assert not rule.matches({"shard": "zzzz", "path": "/deltas"})
        assert not rule.matches({"path": "/deltas"})  # missing attribute


# ----------------------------------------------------------------------
# the injector: deterministic decisions, typed failures, env activation
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_inactive_injector_is_inert(self):
        injector = FaultInjector()
        assert injector.active is False
        assert injector.decide("wal.fsync", shard="x") is None
        injector.activate(FaultPlan(seed=1, rules=()))
        assert injector.active is False  # no rules, nothing to fire

    def test_window_counts_eligible_hits_only(self):
        injector = FaultInjector(FaultPlan(seed=0, rules=(
            FaultRule(point="wal.fsync", match={"shard": "aa"}, nth=2, times=1),
        )))
        # hits on other shards are not eligible and must not advance the count
        assert injector.decide("wal.fsync", shard="bb") is None
        assert injector.decide("wal.fsync", shard="aa") is None  # eligible hit 1
        decision = injector.decide("wal.fsync", shard="aa")      # eligible hit 2
        assert decision is not None and decision.action == "fail"
        assert injector.decide("wal.fsync", shard="aa") is None  # window closed

    def test_first_matching_rule_wins(self):
        injector = FaultInjector(FaultPlan(seed=0, rules=(
            FaultRule(point="p", action="delay", delay_s=0.25, times=1),
            FaultRule(point="p", action="fail", times=None),
        )))
        first = injector.decide("p")
        assert (first.action, first.rule_index, first.delay_s) == ("delay", 0, 0.25)
        second = injector.decide("p")
        assert (second.action, second.rule_index) == ("fail", 1)

    def test_probability_is_deterministic_for_one_seed(self):
        plan = FaultPlan(seed=7, rules=(
            FaultRule(point="p", times=None, probability=0.5),
        ))
        def run():
            injector = FaultInjector(plan)
            return [injector.decide("p") is not None for _ in range(64)]

        outcomes = [run(), run()]
        # wrong twice in the same way is impossible: both injectors drew from
        # RNGs seeded by (plan.seed, rule index)
        assert outcomes[0] == outcomes[1]
        assert True in outcomes[0] and False in outcomes[0]

    def test_report_counts_what_fired(self):
        injector = FaultInjector(FaultPlan(seed=0, rules=(
            FaultRule(point="p", action="fail", nth=1, times=2),
        )))
        for _ in range(5):
            injector.decide("p")
        assert injector.report() == {"p/fail": 2}

    def test_io_helper_raises_a_real_oserror(self):
        injector = FaultInjector(FaultPlan(seed=0, rules=(
            FaultRule(point="disk", action="fail"),
        )))
        with pytest.raises(OSError) as err:
            injector.io("disk", shard="s")
        assert isinstance(err.value, InjectedFault)

    def test_io_helper_delay_action_returns(self):
        injector = FaultInjector(FaultPlan(seed=0, rules=(
            FaultRule(point="disk", action="delay", delay_s=0.0),
        )))
        assert injector.io("disk") is None  # slept 0s, no exception

    def test_crash_helper_raises_a_runtime_error(self):
        injector = FaultInjector(FaultPlan(seed=0, rules=(
            FaultRule(point="engine", action="fail"),
        )))
        with pytest.raises(RuntimeError) as err:
            injector.crash("engine")
        assert isinstance(err.value, InjectedCrash)

    def test_activate_from_env_inline_json(self):
        plan = FaultPlan(seed=3, rules=(FaultRule(point="p"),))
        try:
            assert activate_from_env({PLAN_ENV_VAR: plan.to_json()}) is True
            assert INJECTOR.active is True
            assert INJECTOR.decide("p") is not None
        finally:
            INJECTOR.deactivate()

    def test_activate_from_env_file_path(self, tmp_path):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(
            FaultPlan(seed=3, rules=(FaultRule(point="p"),)).to_json(),
            encoding="utf-8",
        )
        try:
            assert activate_from_env({PLAN_ENV_VAR: str(plan_file)}) is True
            assert INJECTOR.active is True
        finally:
            INJECTOR.deactivate()

    def test_activate_from_env_absent_is_a_noop(self):
        assert activate_from_env({}) is False
        assert INJECTOR.active is False

    def test_broken_plan_fails_loudly(self):
        # a chaos run must never silently degrade into a fault-free run
        with pytest.raises(ValueError):
            activate_from_env({PLAN_ENV_VAR: '{"rules": [{"action": "explode"}]}'})


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
