"""Tests for the cleaning service: routing, coalescing, HTTP, equivalence.

The headline property (the PR's acceptance criterion): N requests submitted
*concurrently* through the service produce byte-identical cleaning output —
every non-wall-clock byte of ``CleaningReport.to_json_dict()`` — to the same
N requests run *serially* through standalone sessions, on all four
registered workloads.  Wall-clock (``timings`` and the perf drill-down under
``details``) is masked by :func:`repro.core.report.report_signature_dict`;
everything else (tables, stage counts, dedup listing, accuracy counters,
backend) is compared bit for bit.

The fault-handling cases follow: a delta request retried with its
idempotency key applies exactly once, a spent deadline fails with 504 before
any work runs, a garbled ``Retry-After`` header is treated as absent,
:class:`~repro.service.ServiceClient` retries 503 answers and lost
connections with capped exponential backoff, and
``python -m repro.service serve`` drains and exits 0 on SIGTERM.
"""

from __future__ import annotations

import asyncio
import http.client
import http.server
import json
import os
import socket
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.config import MLNCleanConfig
from repro.core.report import table_to_json_dict
from repro.dataset.sample import (
    SAMPLE_ATTRIBUTES,
    sample_hospital_rules,
    sample_hospital_table,
)
from repro.experiments.harness import prepare_instance
from repro.service import (
    BadRequestError,
    CleaningService,
    CleanRequestSpec,
    DeltaRequestSpec,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceOverloadedError,
    ServiceServer,
    decode_clean_request,
    decode_delta_request,
    canonical_json,
    plan_tick,
    report_signature,
    report_signature_dict,
)
from repro.service.codec import ground_truth_from_json, ground_truth_to_json
from repro.service.client import _parse_retry_after
from repro.service.http import _failure_status, _parse_deadline_header
from repro.session import CleaningSession, MLNCleanCleaner
from repro.streaming import (
    DeltaBatch,
    Insert,
    SlidingWindow,
    StreamingMLNClean,
    Update,
)
from repro.workloads.registry import (
    available_workloads,
    get_workload_generator,
    recommended_config,
)


def run_async(coro):
    return asyncio.run(coro)


def serial_reference(workload, tuples, error_rate, overrides):
    """One request executed the pre-service way: a standalone session."""
    instance = prepare_instance(workload, tuples=tuples, error_rate=error_rate)
    config = recommended_config(workload)
    if overrides:
        config = replace(config, **overrides)
    session = CleaningSession(rules=instance.rules, config=config)
    return session.run(table=instance.dirty, ground_truth=instance.ground_truth)


def masked(report_or_json) -> str:
    return canonical_json(report_signature_dict(report_or_json))


# ----------------------------------------------------------------------
# the concurrent-equivalence property (acceptance criterion)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "workload,tuples",
    [("hospital-sample", 36), ("hai", 60), ("car", 60), ("tpch", 60)],
)
def test_concurrent_requests_equal_serial_sessions(workload, tuples):
    # all four registered workloads take part
    assert workload in available_workloads()
    tau = recommended_config(workload).abnormal_threshold
    variants = [{}, {}, {"abnormal_threshold": tau + 1}, {"remove_duplicates": False}]
    specs = [
        CleanRequestSpec(
            workload=workload, tuples=tuples, error_rate=0.1, config_overrides=dict(v)
        )
        for v in variants
    ]

    async def through_service():
        async with CleaningService(ServiceConfig(executor_workers=4)) as service:
            jobs = await asyncio.gather(*[service.submit(s) for s in specs])
            await asyncio.gather(*[service.wait(j.id) for j in jobs])
            assert all(j.status.value == "done" for j in jobs), [j.error for j in jobs]
            # one warm shard per distinct config; identical requests share
            distinct_variants = len({canonical_json(v) for v in variants})
            assert len(service.pool.shards()) == distinct_variants
            return [j.report for j in jobs]

    service_reports = run_async(through_service())
    for variant, report in zip(variants, service_reports):
        reference = serial_reference(workload, tuples, 0.1, variant)
        assert masked(report) == masked(reference)
        # the signature compares the *serialized* report too
        assert report_signature(report) == report_signature(reference.to_json_dict())


def test_identical_requests_reuse_one_warm_shard():
    specs = [
        CleanRequestSpec(workload="hospital-sample", tuples=24, error_rate=0.1)
        for _ in range(3)
    ]

    async def main():
        async with CleaningService() as service:
            jobs = [await service.submit(s) for s in specs]
            await asyncio.gather(*[service.wait(j.id) for j in jobs])
            shards = service.pool.shards()
            assert len(shards) == 1
            assert shards[0].session_reuses == 2
            assert shards[0].jobs_done == 3
            assert {j.result["signature"] for j in jobs} == {
                jobs[0].result["signature"]
            }

    run_async(main())


# ----------------------------------------------------------------------
# delta coalescing
# ----------------------------------------------------------------------
def _sample_delta_requests():
    """Seven single-delta requests against the hospital-sample schema."""
    from repro.dataset.sample import SAMPLE_CLEAN_RECORDS

    records = [dict(r) for r in SAMPLE_CLEAN_RECORDS]
    batches = [DeltaBatch([Insert(values=records[i % len(records)])]) for i in range(6)]
    batches.append(DeltaBatch([Update(0, {"CT": "DOTH"})]))
    return batches


def test_coalesced_tick_is_bit_identical_to_standalone_sessions():
    batches = _sample_delta_requests()

    async def through_service():
        async with CleaningService(ServiceConfig(executor_workers=2)) as service:
            specs = [
                DeltaRequestSpec(
                    deltas=batch,
                    rules=sample_hospital_rules(),
                    schema=list(SAMPLE_ATTRIBUTES),
                )
                for batch in batches
            ]
            # no awaits between submits: the shard worker drains them as ONE tick
            jobs = [await service.submit(s) for s in specs]
            await asyncio.gather(*[service.wait(j.id) for j in jobs])
            assert all(j.status.value == "done" for j in jobs), [j.error for j in jobs]
            assert {j.result["tick"] for j in jobs} == {0}
            assert all(j.result["coalesced_requests"] == len(batches) for j in jobs)
            assert [j.result["deltas"] for j in jobs] == [len(b) for b in batches]
            (shard,) = service.pool.shards()
            assert shard.ticks == 1 and shard.coalesced_requests == len(batches)
            return [j.result for j in jobs], table_to_json_dict(shard.stream.cleaned)

    results, service_cleaned = run_async(through_service())

    # standalone: the same requests, each applied as its own micro-batch
    standalone = StreamingMLNClean(sample_hospital_rules(), list(SAMPLE_ATTRIBUTES))
    for batch in _sample_delta_requests():
        standalone.apply_batch(batch)
    assert canonical_json(service_cleaned) == canonical_json(
        table_to_json_dict(standalone.cleaned)
    )
    # every demultiplexed response snapshots the post-tick shard state
    for result in results:
        assert canonical_json(result["cleaned"]) == canonical_json(service_cleaned)


def test_interleaved_deltas_for_two_shards_stay_isolated():
    """Deltas for two differently-configured streams interleave freely."""
    from repro.dataset.sample import SAMPLE_CLEAN_RECORDS

    records = [dict(r) for r in SAMPLE_CLEAN_RECORDS]

    def spec_for(shard_tau, record):
        return DeltaRequestSpec(
            deltas=DeltaBatch([Insert(values=dict(record))]),
            rules=sample_hospital_rules(),
            schema=list(SAMPLE_ATTRIBUTES),
            config_overrides={"abnormal_threshold": shard_tau},
        )

    async def main():
        async with CleaningService(ServiceConfig(executor_workers=2)) as service:
            jobs = []
            for i, record in enumerate(records):
                jobs.append(await service.submit(spec_for(1, record)))
                jobs.append(await service.submit(spec_for(2, record)))
            await asyncio.gather(*[service.wait(j.id) for j in jobs])
            assert all(j.status.value == "done" for j in jobs), [j.error for j in jobs]
            shards = service.pool.shards()
            assert len(shards) == 2
            return {
                shard.session.config.abnormal_threshold: table_to_json_dict(
                    shard.stream.cleaned
                )
                for shard in shards
            }

    per_shard = run_async(main())
    for tau in (1, 2):
        standalone = StreamingMLNClean(
            sample_hospital_rules(),
            list(SAMPLE_ATTRIBUTES),
            config=MLNCleanConfig(abnormal_threshold=tau),
        )
        for record in records:
            standalone.apply_batch(DeltaBatch([Insert(values=dict(record))]))
        assert canonical_json(per_shard[tau]) == canonical_json(
            table_to_json_dict(standalone.cleaned)
        )


def test_invalid_request_in_coalesced_tick_fails_alone():
    """The per-request fallback isolates a bad delta from its tick-mates."""
    from repro.dataset.sample import SAMPLE_CLEAN_RECORDS

    good = DeltaBatch([Insert(values=dict(SAMPLE_CLEAN_RECORDS[0]))])
    bad = DeltaBatch([Update(999, {"CT": "X"})])  # unknown key
    good2 = DeltaBatch([Insert(values=dict(SAMPLE_CLEAN_RECORDS[1]))])

    async def main():
        async with CleaningService() as service:
            specs = [
                DeltaRequestSpec(
                    deltas=batch,
                    rules=sample_hospital_rules(),
                    schema=list(SAMPLE_ATTRIBUTES),
                )
                for batch in (good, bad, good2)
            ]
            jobs = [await service.submit(s) for s in specs]
            await asyncio.gather(*[service.wait(j.id) for j in jobs])
            assert [j.status.value for j in jobs] == ["done", "failed", "done"]
            assert "999" in jobs[1].error
            (shard,) = service.pool.shards()
            assert len(shard.stream.dirty) == 2

    run_async(main())


def test_inline_streams_with_different_schemas_get_separate_shards():
    from repro.session.session import load_rules

    def spec_for(schema, values):
        return DeltaRequestSpec(
            deltas=DeltaBatch([Insert(values=values)]),
            rules=load_rules(["A -> B"]),
            schema=schema,
        )

    async def main():
        async with CleaningService() as service:
            narrow = await service.submit(spec_for(["A", "B"], {"A": "x", "B": "y"}))
            wide = await service.submit(
                spec_for(["A", "B", "C"], {"A": "x", "B": "y", "C": "z"})
            )
            await asyncio.gather(service.wait(narrow.id), service.wait(wide.id))
            # both valid inserts succeed because each schema owns a shard
            assert narrow.status.value == "done", narrow.error
            assert wide.status.value == "done", wide.error
            assert len(service.pool.shards()) == 2

    run_async(main())


def test_equivalent_window_spellings_share_one_shard():
    from repro.session.session import load_rules

    def spec_with_window(window, deltas):
        return DeltaRequestSpec(
            deltas=DeltaBatch(deltas),
            rules=load_rules(["A -> B"]),
            schema=["A", "B"],
            window=window,
        )

    async def main():
        async with CleaningService() as service:
            first = await service.submit(
                spec_with_window(
                    {"kind": "tumbling", "size": 3},
                    [Insert(values={"A": "x", "B": "y"}, tid=0)],
                )
            )
            await service.wait(first.id)
            # the same stream, spelled differently, must see tid 0
            second = await service.submit(
                spec_with_window(
                    {"kind": "Tumbling", "size": "3"},
                    [Update(0, {"B": "z"})],
                )
            )
            await service.wait(second.id)
            assert second.status.value == "done", second.error
            assert len(service.pool.shards()) == 1

    run_async(main())


def test_plan_tick_preserves_arrival_order_and_slices():
    batches = _sample_delta_requests()
    plan = plan_tick(batches)
    assert plan.requests == len(batches)
    assert len(plan.batch) == sum(len(b) for b in batches)
    assert [plan.deltas_of(i) for i in range(plan.requests)] == [
        len(b) for b in batches
    ]
    flattened = [d for b in batches for d in b]
    assert list(plan.batch) == flattened


# ----------------------------------------------------------------------
# backpressure and lifecycle
# ----------------------------------------------------------------------
def test_bounded_queue_sheds_load_with_503_semantics():
    spec = CleanRequestSpec(workload="hospital-sample", tuples=12, error_rate=0.1)

    async def main():
        async with CleaningService(
            ServiceConfig(max_pending=2, executor_workers=1)
        ) as service:
            first = await service.submit(spec)
            second = await service.submit(spec)
            with pytest.raises(ServiceOverloadedError) as excinfo:
                await service.submit(spec)
            assert excinfo.value.max_pending == 2
            assert service.pending == 2
            await asyncio.gather(
                service.wait(first.id), service.wait(second.id)
            )
            assert service.pending == 0
            # capacity freed: submission works again
            third = await service.submit(spec)
            await service.wait(third.id)
            assert third.status.value == "done"

    run_async(main())


def test_pool_refuses_shards_beyond_the_bound():
    from repro.service import PoolExhaustedError

    def spec_with_tau(tau):
        return CleanRequestSpec(
            workload="hospital-sample",
            tuples=12,
            config_overrides={"abnormal_threshold": tau},
        )

    async def main():
        async with CleaningService(ServiceConfig(max_shards=2)) as service:
            await service.submit(spec_with_tau(1))
            await service.submit(spec_with_tau(2))
            with pytest.raises(PoolExhaustedError):
                await service.submit(spec_with_tau(3))
            # existing shards keep accepting work
            job = await service.submit(spec_with_tau(1))
            await service.wait(job.id, timeout=60)
            assert job.status.value == "done"

    run_async(main())


def test_latency_window_ages_out_old_samples():
    from repro.perf import LatencyWindow

    window = LatencyWindow(maxlen=4)
    window.record(10.0)  # an early spike
    for _ in range(4):
        window.record(0.1)
    stats = window.as_dict()
    assert stats["count"] == 5 and stats["window"] == 4
    # the spike has aged out of every windowed number
    assert stats["max_s"] == pytest.approx(0.1)
    assert stats["mean_s"] == pytest.approx(0.1)
    assert stats["p95_s"] == pytest.approx(0.1)
    assert LatencyWindow().as_dict()["p50_s"] is None
    with pytest.raises(ValueError):
        LatencyWindow(0)
    with pytest.raises(ValueError):
        window.percentile(1.5)
    # nearest-rank semantics: p95 of 1..20 is the 19th smallest, not the max
    ladder = LatencyWindow(maxlen=20)
    for value in range(1, 21):
        ladder.record(float(value))
    assert ladder.percentile(0.95) == 19.0
    assert ladder.percentile(0.50) == 10.0
    assert ladder.percentile(1.0) == 20.0
    assert ladder.percentile(0.0) == 1.0


def test_stop_fails_unfinished_jobs_and_service_restarts():
    spec = CleanRequestSpec(workload="hospital-sample", tuples=12, error_rate=0.1)

    async def main():
        service = CleaningService(ServiceConfig(executor_workers=1))
        await service.start()
        jobs = [await service.submit(spec) for _ in range(3)]
        # stop before the shard worker drains anything: every job must be
        # failed (waiters wake up), pending must return to zero
        await service.stop()
        assert [j.status.value for j in jobs] == ["failed"] * 3
        assert all("stopped" in j.error for j in jobs)
        assert service.pending == 0
        # a restarted service routes onto live workers again
        await service.start()
        job = await service.submit(spec)
        await service.wait(job.id, timeout=60)
        assert job.status.value == "done"
        await service.stop()

    run_async(main())


def test_submitting_to_a_stopped_service_is_rejected():
    async def main():
        service = CleaningService()
        with pytest.raises(RuntimeError):
            await service.submit(
                CleanRequestSpec(workload="hospital-sample", tuples=12)
            )

    run_async(main())


def test_stats_surface():
    spec = CleanRequestSpec(workload="hospital-sample", tuples=18, error_rate=0.1)

    async def main():
        async with CleaningService() as service:
            job = await service.submit(spec)
            await service.wait(job.id)
            stats = service.stats()
            assert stats["status"] == "ok"
            assert stats["queue"]["pending"] == 0
            assert stats["queue"]["max_pending"] == 64
            # one shard exists and its queue has drained
            assert list(stats["queue"]["depth_per_shard"].values()) == [0]
            assert stats["jobs"]["done"] == 1
            assert stats["latency"]["count"] == 1
            assert stats["latency"]["p95_s"] >= stats["latency"]["p50_s"] > 0
            (shard_stats,) = stats["shards"]
            assert shard_stats["jobs_done"] == 1
            assert shard_stats["workload"] == "hospital-sample"
            # the DistanceEngine counters from repro.perf ride along
            assert stats["distance"]["calls"] > 0
            assert 0.0 <= stats["distance"]["hit_rate"] <= 1.0

    run_async(main())


# ----------------------------------------------------------------------
# request decoding and validation
# ----------------------------------------------------------------------
def test_decode_clean_request_validates_shape():
    with pytest.raises(BadRequestError):
        decode_clean_request([])  # not an object
    with pytest.raises(BadRequestError):
        decode_clean_request({})  # neither workload nor table
    with pytest.raises(BadRequestError):
        decode_clean_request(
            {"workload": "hai", "table": [{"A": "x"}]}
        )  # both
    with pytest.raises(BadRequestError):
        decode_clean_request({"table": [{"A": "x"}]})  # inline without rules
    with pytest.raises(BadRequestError):
        decode_clean_request({"workload": "hai", "config": {"bogus_knob": 3}})
    with pytest.raises(BadRequestError):
        decode_clean_request({"workload": "hai", "tuples": []})  # junk number
    with pytest.raises(BadRequestError):
        decode_clean_request({"workload": "hai", "error_rate": {}})
    # unknown top-level fields answer 400 instead of being dropped: the
    # retired "stages" option and misspelled fields alike
    for stages in ("agp", ["agp", "sparkle"], ["agp", "rsc", "fscr", "dedup"]):
        with pytest.raises(BadRequestError, match="unknown clean request field.*'stages'"):
            decode_clean_request({"workload": "hai", "stages": stages})
    with pytest.raises(BadRequestError) as excinfo:
        decode_clean_request(
            {
                "workload": "hai",
                "detector": ["all-cells"],
                "error_rte": 0.3,
                "confg": {"abnormal_threshold": 9},
            }
        )
    message = str(excinfo.value)
    assert "'confg', 'detector', 'error_rte'" in message
    assert "accepted fields:" in message and "detectors" in message
    with pytest.raises(BadRequestError):
        decode_clean_request({"workload": "hai", "cleaner": "service"})
    spec = decode_clean_request(
        {
            "table": [{"A": "x", "B": "y"}],
            "rules": ["A -> B"],
            "config": {"abnormal_threshold": 2},
        }
    )
    assert spec.table is not None and len(spec.table) == 1
    assert [r.name for r in spec.rules] == ["r1"]
    assert spec.config_overrides == {"abnormal_threshold": 2}


def test_decode_delta_request_validates_shape():
    with pytest.raises(BadRequestError):
        decode_delta_request({"deltas": "nope"})
    with pytest.raises(BadRequestError):
        decode_delta_request({"deltas": [{"op": "teleport"}]})
    with pytest.raises(BadRequestError):
        decode_delta_request(
            {"workload": "hai", "deltas": [{"op": "delete", "tid": None}]}
        )
    with pytest.raises(BadRequestError):
        decode_delta_request({"deltas": []})  # no stream identity, no deltas
    with pytest.raises(BadRequestError):
        decode_delta_request(
            {"rules": ["A -> B"], "deltas": [{"op": "delete", "tid": 1}]}
        )  # inline rules without schema
    with pytest.raises(BadRequestError) as excinfo:
        decode_delta_request(
            {
                "workload": "hospital-sample",
                "deltas": [{"op": "delete", "tid": 1}],
                "window": {"kind": "bouncing", "size": 4},
            }
        )
    assert "tumbling" in str(excinfo.value) and "sliding" in str(excinfo.value)
    for field in ("windw", "stages"):
        with pytest.raises(BadRequestError, match=f"unknown delta request field.*'{field}'"):
            decode_delta_request(
                {
                    "workload": "hospital-sample",
                    "deltas": [{"op": "delete", "tid": 1}],
                    field: {"kind": "sliding", "size": 9},
                }
            )
    spec = decode_delta_request(
        {
            "workload": "hospital-sample",
            "deltas": [
                {"op": "insert", "values": {"HN": "H", "CT": "C", "ST": "S", "PN": "1"}},
                {"op": "update", "tid": 0, "changes": {"CT": "D"}},
                {"op": "delete", "tid": 1},
            ],
            "window": {"kind": "sliding", "size": 9},
        }
    )
    assert spec.deltas.counts() == {"inserts": 1, "updates": 1, "deletes": 1}


def test_ground_truth_json_round_trip(sample_ground_truth):
    encoded = ground_truth_to_json(sample_ground_truth)
    decoded = ground_truth_from_json(encoded)
    assert ground_truth_to_json(decoded) == encoded
    assert len(decoded) == len(sample_ground_truth)
    assert ground_truth_from_json(None) is None
    with pytest.raises(BadRequestError):
        ground_truth_from_json([{"tid": 0}])


def test_report_signature_masks_only_wall_clock():
    report = serial_reference("hospital-sample", 18, 0.1, {})
    data = report.to_json_dict()
    projected = report_signature_dict(report)
    assert "timings" not in projected and "details" not in projected
    for key in data:
        if key not in ("timings", "details"):
            assert projected[key] == data[key]
    # perturbing the wall clock must not change the signature...
    perturbed = dict(data, timings={"agp": 999.0})
    assert report_signature(perturbed) == report_signature(report)
    # ...but perturbing the cleaned table must
    tampered = dict(data)
    tampered["cleaned"] = dict(
        tampered["cleaned"], rows=tampered["cleaned"]["rows"][:-1]
    )
    assert report_signature(tampered) != report_signature(report)


# ----------------------------------------------------------------------
# session fingerprints and shard identity
# ----------------------------------------------------------------------
def test_session_fingerprint_tracks_behaviour():
    def session(**kwargs):
        rules = kwargs.pop("rules", sample_hospital_rules())
        return CleaningSession(rules=rules, **kwargs)

    base = session().fingerprint()
    assert base == session().fingerprint()  # deterministic
    assert len(base) == 16
    assert session(config=MLNCleanConfig(abnormal_threshold=3)).fingerprint() != base
    assert session(cleaner="minimal-repair").fingerprint() != base
    assert session(cleaner=MLNCleanCleaner("streaming")).fingerprint() != base
    assert session(rules=sample_hospital_rules()[:1]).fingerprint() != base


@pytest.mark.parametrize(
    "options, expected",
    [
        ({}, "92e46a063b766dee"),
        ({"cleaner": MLNCleanCleaner("distributed", workers=2)}, "2190d4e0ada8191b"),
        (
            {
                "cleaner": MLNCleanCleaner(
                    "streaming", batch_size=50, window=SlidingWindow(30)
                )
            },
            "07949315387787ab",
        ),
        ({"cleaner": "holoclean"}, "362725c71658b7a9"),
        ({"detectors": ["violation"]}, "41ee798eeef1e2e2"),
    ],
    ids=["batch", "distributed", "streaming-window", "holoclean", "violation"],
)
def test_session_fingerprints_are_pinned(options, expected):
    """The shard-routing digests stay put: a payload drift fails here."""
    session = CleaningSession(
        rules=sample_hospital_rules(),
        config=MLNCleanConfig(abnormal_threshold=1),
        **options,
    )
    assert session.fingerprint() == expected


# ----------------------------------------------------------------------
# the HTTP front end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def server():
    with ServiceServer(config=ServiceConfig(executor_workers=2)) as srv:
        ServiceClient(port=srv.port).wait_until_healthy()
        yield srv


@pytest.fixture()
def client(server):
    return ServiceClient(port=server.port)


def test_http_clean_round_trip_matches_standalone_session(client):
    job = client.clean(workload="hospital-sample", tuples=24, error_rate=0.1)
    assert job["status"] == "done"
    reference = serial_reference("hospital-sample", 24, 0.1, {})
    assert job["result"]["signature"] == report_signature(reference)
    assert masked(job["result"]["report"]) == masked(reference)
    assert job["result"]["metrics"]["f1"] == pytest.approx(reference.accuracy.f1)


def test_http_async_submit_and_poll(client):
    job = client.clean(
        workload="hospital-sample", tuples=24, error_rate=0.1, wait=False
    )
    assert job["status"] in ("queued", "running", "done")
    finished = client.wait_for(job["id"], timeout=60)
    assert finished["status"] == "done"
    assert "result" in finished


def test_http_deltas_round_trip(client):
    job = client.deltas(
        [
            {"op": "insert", "values": {"HN": "H1", "CT": "DOTHAN", "ST": "AL", "PN": "1"}},
            {"op": "insert", "values": {"HN": "H1", "CT": "DOTHAN", "ST": "AL", "PN": "1"}},
        ],
        workload="hospital-sample",
    )
    assert job["status"] == "done"
    assert job["result"]["tuples_total"] == 2
    assert len(job["result"]["cleaned"]["rows"]) >= 1


def test_http_structured_400_for_unknown_registry_names(client):
    with pytest.raises(ServiceError) as excinfo:
        client.clean(workload="nope-db", tuples=10)
    assert excinfo.value.status == 400
    error = excinfo.value.payload["error"]
    assert error["type"] == "unknown_name"
    # the unknown_name() listing names what IS registered
    for name in available_workloads():
        assert name in error["message"]
    with pytest.raises(ServiceError) as excinfo:
        client.clean(workload="hospital-sample", cleaner="sparkle")
    assert excinfo.value.status == 400
    assert "mlnclean" in excinfo.value.payload["error"]["message"]


def test_http_bad_cleaner_options_are_400(client):
    with pytest.raises(ServiceError) as excinfo:
        client.clean(workload="hospital-sample", options={"bogus_knob": 1})
    assert excinfo.value.status == 400
    assert "bogus_knob" in excinfo.value.payload["error"]["message"]


@pytest.mark.parametrize(
    "knob",
    [
        "distance_kernel",
        "distance_cache",
        "distance_cache_entries",
        "qgram_size",
        "pruning_topk",
        "max_candidates",
        "instrument",
    ],
)
def test_http_removed_config_knob_is_400_naming_the_field(client, knob):
    with pytest.raises(ServiceError) as excinfo:
        client.clean(workload="hospital-sample", tuples=12, config={knob: "numpy"})
    assert excinfo.value.status == 400
    message = excinfo.value.payload["error"]["message"]
    assert "bad config overrides" in message
    assert knob in message


@pytest.mark.parametrize("knob", ["damping", "max_step"])
def test_http_removed_weight_learning_knob_is_400_naming_it(client, knob):
    with pytest.raises(ServiceError) as excinfo:
        client.clean(
            workload="hospital-sample", tuples=12, config={"weight_learning": {knob: 1.0}}
        )
    assert excinfo.value.status == 400
    message = excinfo.value.payload["error"]["message"]
    assert "bad config overrides" in message
    assert knob in message


def test_http_apply_time_delta_errors_are_400(client):
    with pytest.raises(ServiceError) as excinfo:
        client.deltas(
            [{"op": "update", "tid": 987654, "changes": {"CT": "X"}}],
            workload="hospital-sample",
        )
    assert excinfo.value.status == 400
    job = excinfo.value.payload["job"]
    assert job["status"] == "failed" and job["error_kind"] == "bad_request"
    assert "987654" in job["error"]


def test_http_bad_requests_are_400_not_500(client):
    with pytest.raises(ServiceError) as excinfo:
        client.request("POST", "/clean", {"table": [{"A": "x"}]})
    assert excinfo.value.status == 400
    # an unknown top-level field is named, on both endpoints
    delta = {"deltas": [{"op": "delete", "tid": 1}]}
    for path, field, body in (("/clean", "stages", {}), ("/deltas", "windw", delta)):
        with pytest.raises(ServiceError) as excinfo:
            client.request(
                "POST", path, {"workload": "hospital-sample", field: [], **body}
            )
        assert excinfo.value.status == 400
        assert f"field(s) {field!r};" in excinfo.value.payload["error"]["message"]
    import http.client as http_client
    import json as json_module

    connection = http_client.HTTPConnection(client.host, client.port, timeout=30)
    try:
        connection.request(
            "POST", "/clean", body=b"{not json", headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        payload = json_module.loads(response.read().decode("utf-8"))
        assert response.status == 400
        assert payload["error"]["type"] == "bad_json"
    finally:
        connection.close()


def test_http_clean_reads_a_json_null_as_an_empty_cell(client):
    records = [row.as_dict() for row in sample_hospital_table()]
    records[1]["ST"] = None
    job = client.clean(
        table=records,
        rules=["CT -> ST", "PN -> ST"],
        config={"abnormal_threshold": 1},
    )
    assert job["status"] == "done", job.get("error")
    report = job["result"]["report"]
    assert dict(report["dirty"]["rows"])[1][report["dirty"]["attributes"].index("ST")] == ""
    for name in ("dirty", "repaired", "cleaned"):
        assert all("None" not in values for _tid, values in report[name]["rows"])


def test_http_unknown_routes_and_jobs(client):
    with pytest.raises(ServiceError) as excinfo:
        client.job("j999999")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client.request("GET", "/bogus")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client.request("GET", "/clean")
    assert excinfo.value.status == 405


def test_http_healthz_and_stats(client):
    health = client.healthz()
    assert health["status"] == "ok" and health["uptime_s"] >= 0
    stats = client.stats()
    for key in ("queue", "jobs", "latency", "shards", "distance", "coalescing"):
        assert key in stats


# ----------------------------------------------------------------------
# the "service" registered cleaner (what service_replay runs)
# ----------------------------------------------------------------------
def test_service_cleaner_changes_nothing(sample_table, sample_rules, sample_config):
    direct = CleaningSession(rules=sample_rules, config=sample_config).run(
        table=sample_table.copy()
    )
    through_service = CleaningSession(
        rules=sample_rules, config=sample_config, cleaner="service"
    ).run(table=sample_table.copy())
    assert through_service.cleaned.equals(direct.cleaned)
    assert masked(through_service) == masked(direct)


def test_render_service_replay_checks_equality():
    from repro.experiments import run_experiment

    result = run_experiment("service_replay", tuples=30)
    service_rows = [row for row in result.rows if "matches_batch" in row]
    assert service_rows, "the spec must produce at least one service cell"
    assert all(row["matches_batch"] for row in service_rows)
    assert all(row["metrics_equal"] for row in service_rows)


# ----------------------------------------------------------------------
# a crash inside a tick
# ----------------------------------------------------------------------
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


def test_a_crash_inside_a_tick_fails_its_jobs_as_internal(monkeypatch):
    batches = hai_delta_batches()

    def crash(self, batch):
        raise RuntimeError("engine bug")

    async def main():
        async with CleaningService(ServiceConfig(executor_workers=1)) as service:
            monkeypatch.setattr(StreamingMLNClean, "apply_batch", crash)
            jobs = [
                await service.submit(decode_delta_request(hai_delta_payload(deltas)))
                for deltas in batches[:2]
            ]
            await asyncio.gather(*[service.wait(j.id) for j in jobs])
            assert [j.status.value for j in jobs] == ["failed", "failed"]
            assert [j.error_kind for j in jobs] == ["internal", "internal"]
            assert all("engine bug" in j.error for j in jobs)

    run_async(main())


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
