"""The observability layer: tracer, metrics, and their pipeline integration.

The headline invariants of the PR:

* tracing is *output-invariant*: every backend produces byte-identical
  masked report signatures (and identical cleaned tables) with tracing on
  or off, on all four registered workloads;
* a traced run yields **one connected span tree** — per session run, and
  per service job (across the enqueue → dispatch → executor-thread hop);
* span trees are deterministic: repeat runs of the same workload produce
  identical ``name_tree`` structures and byte-identical redacted exports;
* ``GET /metrics`` renders valid Prometheus text (our own strict parser
  round-trips it) carrying service-, stage- and distance-level signals.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
from dataclasses import replace

import pytest

from repro.core.config import MLNCleanConfig
from repro.core.report import table_to_json_dict
from repro.experiments.harness import prepare_instance
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    current_tracer,
    ensure_tracer,
    name_tree,
    parse_prometheus,
    redacted_spans,
    render_tree,
    span,
    stage_scope,
    to_chrome,
    tracing_active,
    use_tracer,
)
from repro.obs.trace import WALL_CLOCK_FIELDS
from repro.service import (
    CleaningService,
    CleanRequestSpec,
    ServiceClient,
    ServiceConfig,
    ServiceServer,
    canonical_json,
    report_signature,
)
from repro.service.pool import SessionPool
from repro.session import CleaningSession, MLNCleanCleaner
from repro.workloads.registry import recommended_config

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


def run_async(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# tracer primitives
# ----------------------------------------------------------------------
def test_null_tracer_is_the_ambient_default():
    assert current_tracer() is NULL_TRACER
    assert not tracing_active()
    with span("anything", attr=1) as handle:
        # the no-op span accepts the full Span surface and chains
        assert handle.set(more=2) is handle
    assert NULL_TRACER.finished() == []
    assert NULL_TRACER.end(NULL_TRACER.begin("x")) is None
    with NULL_TRACER.attach(None):
        pass


def test_tracer_records_nested_spans_with_deterministic_ids():
    tracer = Tracer()
    with use_tracer(tracer):
        assert tracing_active() and current_tracer() is tracer
        with span("root", layer="outer") as root:
            with span("child") as child:
                child.set(items=3)
            with span("sibling"):
                pass
    spans = tracer.finished()
    assert [s.name for s in spans] == ["child", "sibling", "root"]
    by_name = {s.name: s for s in spans}
    assert by_name["root"].span_id == "s1" and by_name["root"].parent_id is None
    assert by_name["child"].parent_id == by_name["root"].span_id
    assert by_name["sibling"].parent_id == by_name["root"].span_id
    assert {s.trace_id for s in spans} == {"t1"}
    assert by_name["child"].attrs == {"items": 3}
    assert root.duration is not None and root.duration >= 0.0
    # ambient state is restored once the block exits
    assert current_tracer() is NULL_TRACER


def test_span_records_exceptions_and_reraises():
    tracer = Tracer()
    with use_tracer(tracer):
        with pytest.raises(RuntimeError, match="boom"):
            with span("failing"):
                raise RuntimeError("boom")
    (failed,) = tracer.finished()
    assert failed.status == "error"
    assert failed.error == "RuntimeError: boom"
    assert failed.end is not None


def test_tracer_bounds_memory_and_counts_drops():
    tracer = Tracer(max_spans=2)
    with use_tracer(tracer):
        for index in range(5):
            with span(f"s{index}"):
                pass
    assert len(tracer.finished()) == 2
    assert tracer.dropped == 3
    assert [s.name for s in tracer.finished()] == ["s3", "s4"]
    with pytest.raises(ValueError):
        Tracer(max_spans=0)


def test_begin_with_parent_none_starts_a_new_trace():
    tracer = Tracer()
    first = tracer.begin("job-a", parent=None)
    second = tracer.begin("job-b", parent=None)
    assert (first.trace_id, second.trace_id) == ("t1", "t2")
    tracer.end(first)
    tracer.end(second)
    tracer.end(second)  # idempotent
    assert len(tracer.finished()) == 2
    popped = tracer.pop_trace("t1")
    assert [s.name for s in popped] == ["job-a"]
    assert [s.trace_id for s in tracer.finished()] == ["t2"]
    tracer.clear()
    assert tracer.finished() == []


def test_attach_stitches_spans_across_threads():
    """The service pattern: root on the loop, work spans on executor threads."""
    tracer = Tracer()
    root = tracer.begin("service.request", parent=None, job="j1")

    def worker():
        # contextvars do not cross threads: re-install tracer and parent
        with use_tracer(tracer), tracer.attach(root):
            with span("shard.clean"):
                pass

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    tracer.end(root)
    spans = tracer.finished()
    child = next(s for s in spans if s.name == "shard.clean")
    assert child.parent_id == root.span_id
    assert child.trace_id == root.trace_id
    assert child.thread != root.thread  # distinct chrome tids
    assert len(name_tree(spans)) == 1


def test_ensure_tracer_reuses_ambient_and_respects_the_knob():
    outer = Tracer()
    with use_tracer(outer):
        with ensure_tracer(True) as reused:
            assert reused is outer  # never shadowed
    with ensure_tracer(False) as inactive:
        assert inactive is None
        assert not tracing_active()
    with ensure_tracer(True) as fresh:
        assert isinstance(fresh, Tracer) and fresh is not outer
        with span("traced"):
            pass
    assert [s.name for s in fresh.finished()] == ["traced"]


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------
def _sample_trace() -> Tracer:
    tracer = Tracer()
    with use_tracer(tracer):
        with span("root", workload="hospital-sample"):
            with span("child", blocks=2):
                pass
    return tracer


def test_redacted_spans_drop_exactly_the_wall_clock_fields():
    spans = _sample_trace().finished()
    full = spans[0].as_dict()
    assert set(WALL_CLOCK_FIELDS) <= set(full)
    for record in redacted_spans(spans):
        assert not set(WALL_CLOCK_FIELDS) & set(record)
        assert {"name", "trace_id", "span_id", "parent_id", "attrs"} <= set(record)
    # redacted exports are byte-identical across two identical runs
    first = json.dumps(redacted_spans(_sample_trace().finished()))
    second = json.dumps(redacted_spans(_sample_trace().finished()))
    assert first == second


def test_to_chrome_emits_trace_event_schema():
    spans = _sample_trace().finished()
    payload = to_chrome(spans)
    assert set(payload) == {"traceEvents", "displayTimeUnit"}
    events = payload["traceEvents"]
    assert [e["name"] for e in events] == ["root", "child"]  # creation order
    for event in events:
        assert event["ph"] == "X" and event["cat"] == "repro"
        assert event["pid"] == 1 and event["tid"] >= 1
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert {"span_id", "parent_id", "trace_id", "status"} <= set(event["args"])
    assert events[0]["args"]["workload"] == "hospital-sample"
    # redacted chrome exports of two identical runs are byte-identical
    assert json.dumps(to_chrome(_sample_trace().finished(), redact=True)) == json.dumps(
        to_chrome(_sample_trace().finished(), redact=True)
    )


def test_name_tree_and_render_tree():
    tracer = _sample_trace()
    assert name_tree(tracer.finished()) == [["root", [["child", []]]]]
    rendered = render_tree(tracer.finished())
    assert "root" in rendered and "└─ child" in rendered
    assert "workload=hospital-sample" in rendered
    assert "blocks=2" in render_tree(tracer.finished(), attrs=True)
    assert "blocks=2" not in render_tree(tracer.finished(), attrs=False)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def test_counter_gauge_histogram_basics():
    registry = MetricsRegistry()
    counter = registry.counter("test_ops_total", "ops", ("kind",))
    counter.labels(kind="a").inc()
    counter.labels(kind="a").inc(2.5)
    counter.labels(kind="b").inc()
    assert {k["kind"]: c.value for k, c in counter.samples()} == {"a": 3.5, "b": 1.0}
    with pytest.raises(ValueError):
        counter.labels(kind="a").inc(-1)
    with pytest.raises(ValueError):
        counter.inc()  # labelled metric has no default series

    gauge = registry.gauge("test_depth", "depth")
    gauge.set(7)
    gauge.inc()
    gauge.dec(3)
    assert gauge._default().value == 5.0

    histogram = registry.histogram("test_seconds", "latency", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 5.0):
        histogram.observe(value)
    summary = histogram._default().summary()
    assert summary["count"] == 3
    assert summary["sum"] == pytest.approx(5.55)
    assert summary["buckets"] == {"0.1": 1, "1": 2, "+Inf": 3}
    with pytest.raises(ValueError):
        registry.histogram("test_bad", "x", buckets=())
    with pytest.raises(ValueError):
        registry.histogram("test_bad2", "x", buckets=(1.0, 0.5))


def test_registry_get_or_create_and_conflicts():
    registry = MetricsRegistry()
    first = registry.counter("shared_total", "x", ("a",))
    assert registry.counter("shared_total", "x", ("a",)) is first
    assert registry.instrument("shared_total") is first
    with pytest.raises(ValueError):
        registry.gauge("shared_total", "x", ("a",))  # kind conflict
    with pytest.raises(ValueError):
        registry.counter("shared_total", "x", ("b",))  # label conflict
    with pytest.raises(ValueError):
        registry.counter("0bad name", "x")
    with pytest.raises(ValueError):
        registry.counter("fine_total", "x", ("0bad",))
    with pytest.raises(ValueError):
        registry.counter("fine_total", "x", ("a", "a"))
    histogram = registry.histogram("h_seconds", "x", buckets=(1.0, 2.0))
    with pytest.raises(ValueError):
        registry.histogram("h_seconds", "x", buckets=(1.0, 3.0))
    assert histogram is registry.histogram("h_seconds", "x", buckets=(1.0, 2.0))


def test_render_prometheus_round_trips_through_the_strict_parser():
    registry = MetricsRegistry()
    registry.counter("jobs_total", "jobs", ("kind", "status")).labels(
        kind="clean", status="done"
    ).inc(4)
    registry.gauge("depth", "queue depth").set(2)
    registry.histogram("lat_seconds", "latency", buckets=(0.5, 1.0)).observe(0.7)

    @registry.register_collector
    def extra():
        return [
            {
                "name": "external_value",
                "type": "gauge",
                "help": 'has "quotes" and\nnewlines in labels',
                "samples": [({"path": 'a"b\nc'}, 1.5)],
            }
        ]

    text = registry.render_prometheus()
    assert "# TYPE jobs_total counter" in text
    assert "# TYPE lat_seconds histogram" in text
    samples = parse_prometheus(text)
    assert samples['jobs_total{kind="clean",status="done"}'] == 4
    assert samples["depth"] == 2
    assert samples['lat_seconds_bucket{le="0.5"}'] == 0
    assert samples['lat_seconds_bucket{le="1"}'] == 1
    assert samples['lat_seconds_bucket{le="+Inf"}'] == 1
    assert samples["lat_seconds_sum"] == pytest.approx(0.7)
    assert samples["lat_seconds_count"] == 1
    assert samples['external_value{path="a\\"b\\nc"}'] == 1.5

    snapshot = registry.snapshot()
    assert snapshot["jobs_total"]["type"] == "counter"
    assert snapshot["lat_seconds"]["samples"][0]["count"] == 1
    assert snapshot["external_value"]["samples"][0]["value"] == 1.5

    with pytest.raises(ValueError):
        parse_prometheus("this is not a sample line")
    assert parse_prometheus("") == {}
    assert parse_prometheus('x{le="+Inf"} +Inf')['x{le="+Inf"}'] == float("inf")


def test_stage_scope_fans_out_to_timings_counter_and_span():
    from repro.obs import STAGE_SECONDS

    class Timings:
        def __init__(self):
            self.recorded = {}

        def record(self, stage, seconds):
            self.recorded[stage] = self.recorded.get(stage, 0.0) + seconds

    timings = Timings()
    child = STAGE_SECONDS.labels(backend="testbed", stage="agp")
    before = child.value
    tracer = Tracer()
    with use_tracer(tracer):
        with stage_scope(timings, "testbed", "agp", blocks=4) as scope:
            scope.set(resolved=2)
    assert "agp" in timings.recorded and timings.recorded["agp"] >= 0.0
    assert child.value > before
    (recorded,) = tracer.finished()
    assert recorded.name == "stage:agp"
    assert recorded.attrs == {"backend": "testbed", "blocks": 4, "resolved": 2}


# ----------------------------------------------------------------------
# tracing is output-invariant, on every backend and workload
# ----------------------------------------------------------------------
def _run(workload, tuples, backend, trace):
    instance = prepare_instance(workload, tuples=tuples, error_rate=0.1)
    config = replace(recommended_config(workload), trace=trace)
    session = CleaningSession(
        rules=instance.rules, config=config, cleaner=MLNCleanCleaner(backend)
    )
    report = session.run(table=instance.dirty, ground_truth=instance.ground_truth)
    return session, report


@pytest.mark.parametrize(
    "workload,tuples",
    [("hospital-sample", 36), ("hai", 60), ("car", 60), ("tpch", 60)],
)
def test_backends_bit_identical_with_tracing_on_or_off(workload, tuples):
    for backend in ("batch", "distributed", "streaming"):
        traced_session, traced = _run(workload, tuples, backend, trace=True)
        _, untraced = _run(workload, tuples, backend, trace=False)
        # the masked signature covers every non-wall-clock report byte
        assert report_signature(traced) == report_signature(untraced), backend
        # ... including the cleaned table, byte for byte
        assert canonical_json(table_to_json_dict(traced.cleaned)) == canonical_json(
            table_to_json_dict(untraced.cleaned)
        ), backend
        # ... and the traced run actually recorded spans
        assert traced_session.last_trace is not None
        assert traced_session.last_trace.finished(), backend


def test_session_last_trace_is_none_when_tracing_is_off():
    session, _report = _run("hospital-sample", 24, "batch", trace=False)
    assert session.last_trace is None


@pytest.mark.parametrize("backend", ["batch", "distributed", "streaming"])
def test_span_trees_are_stable_across_repeat_runs(backend):
    def collect():
        session, _report = _run("hospital-sample", 36, backend, trace=True)
        spans = session.last_trace.finished()
        trees = name_tree(spans)
        assert len(trees) == 1, f"{backend} must yield one connected tree"
        # every parent id resolves inside the same trace
        ids = {s.span_id for s in spans}
        assert all(s.parent_id in ids for s in spans if s.parent_id is not None)
        return trees, json.dumps(redacted_spans(spans))

    first_tree, first_redacted = collect()
    second_tree, second_redacted = collect()
    assert first_tree == second_tree
    assert first_redacted == second_redacted


def test_batch_trace_contains_every_layer():
    session, _report = _run("hospital-sample", 36, "batch", trace=True)
    names = {s.name for s in session.last_trace.finished()}
    assert {
        "session.run",
        "backend:batch",
        "pipeline.clean",
        "stage:index",
        "stage:agp",
        "stage:rsc",
        "stage:fscr",
        "stage:dedup",
    } <= names


def test_distributed_trace_shows_worker_phases():
    session, _report = _run("hospital-sample", 48, "distributed", trace=True)
    names = {s.name for s in session.last_trace.finished()}
    assert {
        "driver.clean",
        "stage:partition",
        "phase:learn",
        "worker.learn",
        "phase:clean",
        "worker.clean",
        "stage:weight_fusion",
        "stage:gather",
    } <= names


def test_streaming_trace_shows_ticks():
    session, _report = _run("hospital-sample", 36, "streaming", trace=True)
    spans = session.last_trace.finished()
    ticks = [s for s in spans if s.name == "stream.tick"]
    assert ticks and all(s.attrs["deltas"] >= 1 for s in ticks)
    assert {"stage:delta", "stage:fscr"} <= {s.name for s in spans}


# ----------------------------------------------------------------------
# fingerprints and routing ignore the trace knob
# ----------------------------------------------------------------------
def test_fingerprint_and_routing_ignore_the_trace_knob():
    from repro.dataset.sample import sample_hospital_rules

    rules = sample_hospital_rules()
    plain = CleaningSession(rules=rules, config=MLNCleanConfig())
    traced = CleaningSession(rules=rules, config=MLNCleanConfig(trace=True))
    assert plain.fingerprint() == traced.fingerprint()
    # identity_dict drops exactly the observability fields
    identity = MLNCleanConfig(trace=True).identity_dict()
    assert "trace" not in identity
    # the pool routes trace-only-different requests onto ONE warm shard
    pool = SessionPool()
    base = CleanRequestSpec(workload="hospital-sample", tuples=24)
    opted_in = CleanRequestSpec(
        workload="hospital-sample", tuples=24, config_overrides={"trace": True}
    )
    assert pool.route(base) is pool.route(opted_in)
    assert len(pool.shards()) == 1


# ----------------------------------------------------------------------
# the service: one connected tree per job, /metrics, trace export
# ----------------------------------------------------------------------
def test_traced_service_job_yields_one_connected_tree():
    spec = CleanRequestSpec(workload="hospital-sample", tuples=18, error_rate=0.1)

    async def main():
        async with CleaningService(ServiceConfig(trace=True)) as service:
            job = await service.submit(spec)
            await service.wait(job.id)
            assert job.status.value == "done", job.error
            spans = service.tracer.finished()
            stats = service.stats()
            return job, spans, stats

    job, spans, stats = run_async(main())
    trees = name_tree(spans)
    assert len(trees) == 1, render_tree(spans)
    root_name, _children = trees[0]
    assert root_name == "service.request"
    names = {s.name for s in spans}
    # the tree spans the enqueue → executor-thread → pipeline layers
    assert {"shard.clean", "session.run", "backend:batch", "pipeline.clean"} <= names
    ids = {s.span_id for s in spans}
    assert all(s.parent_id in ids for s in spans if s.parent_id is not None)
    assert len({s.trace_id for s in spans}) == 1
    root = next(s for s in spans if s.parent_id is None)
    assert root.attrs["job"] == job.id and root.attrs["job_status"] == "done"
    # the /stats surface rides along: uptime, depth, batch-size histogram
    assert stats["uptime_s"] >= 0
    assert stats["queue"]["depth_per_shard"] == {job.shard: 0}
    assert stats["coalescing"]["batch_size"]["count"] == 0
    assert stats["shards"][0]["queue_depth"] == 0


def test_service_trace_dir_exports_chrome_json_per_job(tmp_path):
    spec = CleanRequestSpec(workload="hospital-sample", tuples=18, error_rate=0.1)

    async def main():
        config = ServiceConfig(trace_dir=str(tmp_path))
        async with CleaningService(config) as service:
            assert service.tracer is not None  # trace_dir implies tracing
            jobs = [await service.submit(spec) for _ in range(2)]
            await asyncio.gather(*[service.wait(j.id) for j in jobs])
            # exported traces are popped from the tracer (no unbounded growth)
            assert service.tracer.finished() == []
            return jobs

    jobs = run_async(main())
    for job in jobs:
        payload = json.loads((tmp_path / f"trace-{job.id}.json").read_text())
        assert set(payload) == {"traceEvents", "displayTimeUnit"}
        events = payload["traceEvents"]
        assert events, "the exported trace must carry events"
        for event in events:
            assert event["ph"] == "X" and event["pid"] == 1
            assert {"name", "ts", "dur", "tid", "args"} <= set(event)
        names = {e["name"] for e in events}
        assert {"service.request", "shard.clean", "session.run"} <= names
        # connectivity survives the export: every parent resolves
        ids = {e["args"]["span_id"] for e in events}
        roots = [e for e in events if e["args"]["parent_id"] is None]
        assert len(roots) == 1 and roots[0]["args"]["job"] == job.id
        assert all(
            e["args"]["parent_id"] in ids
            for e in events
            if e["args"]["parent_id"] is not None
        )


def test_coalesced_delta_jobs_each_get_a_connected_tree():
    from repro.dataset.sample import SAMPLE_ATTRIBUTES, SAMPLE_CLEAN_RECORDS
    from repro.dataset.sample import sample_hospital_rules
    from repro.service import DeltaRequestSpec
    from repro.streaming import DeltaBatch, Insert

    specs = [
        DeltaRequestSpec(
            deltas=DeltaBatch([Insert(values=dict(record))]),
            rules=sample_hospital_rules(),
            schema=list(SAMPLE_ATTRIBUTES),
        )
        for record in SAMPLE_CLEAN_RECORDS[:3]
    ]

    async def main():
        async with CleaningService(ServiceConfig(trace=True)) as service:
            jobs = [await service.submit(s) for s in specs]
            await asyncio.gather(*[service.wait(j.id) for j in jobs])
            assert all(j.status.value == "done" for j in jobs), [j.error for j in jobs]
            return jobs, service.tracer.finished(), service.stats()

    jobs, spans, stats = run_async(main())
    trees = name_tree(spans)
    assert len(trees) == len(jobs)  # one connected tree per job
    roots = [s for s in spans if s.parent_id is None]
    assert {root.attrs["job"] for root in roots} == {j.id for j in jobs}
    # the folded jobs carry marker ticks pointing at the executing one
    markers = [s for s in spans if s.attrs.get("coalesced_into")]
    executed = [
        s for s in spans if s.name == "shard.tick" and "requests" in s.attrs
    ]
    assert len(executed) + len(markers) == len(jobs)
    assert {m.attrs["coalesced_into"] for m in markers} <= {j.id for j in jobs}
    # the batch-size histogram observed the coalesced drain(s)
    assert stats["coalescing"]["batch_size"]["count"] >= 1
    assert stats["coalescing"]["batch_size"]["buckets"]["+Inf"] >= 1


def test_http_metrics_endpoint_serves_parseable_prometheus():
    with ServiceServer(config=ServiceConfig(executor_workers=2)) as server:
        client = ServiceClient(port=server.port)
        client.wait_until_healthy()
        job = client.clean(workload="hospital-sample", tuples=18, error_rate=0.1)
        assert job["status"] == "done"
        connection = http.client.HTTPConnection(
            client.host, server.port, timeout=30
        )
        try:
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            body = response.read().decode("utf-8")
            content_type = response.getheader("Content-Type")
        finally:
            connection.close()
    assert response.status == 200
    assert content_type == "text/plain; version=0.0.4; charset=utf-8"
    samples = parse_prometheus(body)  # the strict parser IS the assertion
    assert samples['repro_service_jobs_total{kind="clean",status="done"}'] >= 1
    assert any(
        key.startswith("repro_service_job_seconds_bucket") for key in samples
    )
    assert samples["repro_service_pending_jobs"] == 0
    assert samples["repro_service_uptime_seconds"] >= 0
    assert any(key.startswith("repro_service_queue_depth") for key in samples)
    # process-wide signals are appended to the service-scoped ones
    assert any(key.startswith("repro_stage_seconds_total") for key in samples)
    assert any(key.startswith("repro_runs_total") for key in samples)
    assert 0.0 <= samples["repro_distance_cache_hit_rate"] <= 1.0
    assert samples["repro_distance_calls_total"] >= 0


# ----------------------------------------------------------------------
# experiments: snapshot embedding and the --trace flag
# ----------------------------------------------------------------------
def test_run_artifact_embeds_a_metrics_snapshot(tmp_path):
    from repro.experiments import ExperimentRunner, RunArtifact, load_spec

    spec = replace(load_spec("smoke"), tuples=40)
    artifact = ExperimentRunner(spec).run()
    snapshot = artifact.metrics_snapshot
    assert snapshot is not None
    assert "repro_stage_seconds_total" in snapshot
    assert "repro_distance_cache_hit_rate" in snapshot
    # per-cell stage timings ride along in the perf drill-down
    assert all("stages" in cell.perf for cell in artifact.cells)
    assert any(cell.perf["stages"] for cell in artifact.cells)
    # the snapshot survives the JSON round trip
    path = artifact.save(tmp_path / "artifact.json")
    loaded = RunArtifact.load(path)
    assert loaded.metrics_snapshot == artifact.metrics_snapshot


def test_experiments_cli_trace_flag_writes_chrome_json(tmp_path, capsys):
    from repro.experiments.__main__ import main as experiments_main

    out = tmp_path / "trace.json"
    artifact_path = tmp_path / "artifact.json"
    code = experiments_main(
        [
            "run",
            "smoke",
            "--tuples",
            "40",
            "--trace",
            str(out),
            "--out",
            str(artifact_path),
        ]
    )
    assert code == 0
    assert "trace written to" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    events = payload["traceEvents"]
    assert events and {"session.run", "pipeline.clean"} <= {e["name"] for e in events}
