"""The cleaning service core: bounded queue, shard workers, coalesced ticks.

``CleaningService`` is the engine behind the HTTP front end (and usable
in-process without it): an asyncio control plane that accepts decoded
request specs, routes them through the :class:`~repro.service.pool.SessionPool`
to per-shard queues, and executes the actual cleaning on a thread pool so
the event loop stays responsive while CPU-bound work runs.

Concurrency model, in one paragraph: submission is bounded (``max_pending``
jobs queued-or-running; beyond that :class:`ServiceOverloadedError` — the
front end's 503).  Every shard has one worker task, so jobs of one shard are
*serialized* against its warm session and stream engine, while distinct
shards clean concurrently on the executor.  When a shard worker wakes up it
drains everything queued for its shard: delta requests are folded into one
:class:`~repro.streaming.cleaner.StreamingMLNClean` micro-batch via
:func:`~repro.service.coalescer.plan_tick` (one engine tick per drain —
natural micro-batching under load), clean requests run one by one in
arrival order.  Per-job latency lands in a
:class:`~repro.perf.LatencyWindow`; ``stats()`` surfaces it next to queue
depth, per-shard throughput and the process-global
:func:`~repro.perf.global_distance_stats` cache counters.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Union

from repro.core.report import report_signature, table_to_json_dict
from repro.obs import (
    REGISTRY,
    MetricsRegistry,
    Span,
    Tracer,
    span,
    to_chrome,
    use_tracer,
)
from repro.perf import LatencyWindow, global_distance_stats
from repro.service.coalescer import plan_tick
from repro.service.codec import CleanRequestSpec, DeltaRequestSpec
from repro.service.errors import ServiceDrainingError, ServiceOverloadedError
from repro.service.jobs import Job, JobStore
from repro.service.pool import SessionPool, Shard

#: what a request spec may be
RequestSpec = Union[CleanRequestSpec, DeltaRequestSpec]

@dataclass
class ServiceConfig:
    """Operational knobs of one service instance."""

    #: bounded backpressure: jobs queued-or-running before submits are shed
    max_pending: int = 64
    #: distinct warm shards before shard-creating submits are shed
    max_shards: int = 256
    #: threads executing the CPU-bound cleaning work
    executor_workers: int = 4
    #: samples retained for the p50/p95 latency readout
    latency_window: int = 512
    #: finished jobs kept addressable via ``GET /jobs/<id>``
    retain_finished_jobs: int = 2048
    #: server-side default for requests that omit their own ``seed``
    #: (the ``--seed`` flag of ``python -m repro.service serve``)
    default_seed: Optional[int] = None
    #: trace every job (in memory; read back via ``CleaningService.tracer``)
    trace: bool = False
    #: directory receiving one Chrome ``trace_event`` JSON per finished job
    #: (the ``--trace-dir`` flag of ``python -m repro.service serve``);
    #: setting it implies ``trace``
    trace_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ValueError("the service needs max_pending >= 1")
        if self.executor_workers < 1:
            raise ValueError("the service needs executor_workers >= 1")


class _ShardRuntime:
    """A shard's queue and worker task (event-loop-side bookkeeping)."""

    def __init__(self, shard: Shard):
        self.shard = shard
        self.queue: asyncio.Queue = asyncio.Queue()
        self.task: Optional[asyncio.Task] = None


class CleaningService:
    """The concurrent, sharded cleaning service (see the module docstring)."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.pool = SessionPool(max_shards=self.config.max_shards)
        self.jobs = JobStore(retain_finished=self.config.retain_finished_jobs)
        self.latency = LatencyWindow(self.config.latency_window)
        self._runtimes: dict = {}
        self._executor: Optional[ThreadPoolExecutor] = None
        self._pending = 0
        self._started_at: Optional[float] = None
        self._running = False
        self._draining = False
        #: service-scoped instruments (one registry per instance, so two
        #: services in one process do not mix their job counters); the
        #: process-wide :data:`repro.obs.REGISTRY` is appended at scrape time
        self.metrics = MetricsRegistry()
        self._jobs_total = self.metrics.counter(
            "repro_service_jobs_total",
            "finished service jobs by kind and terminal status",
            ("kind", "status"),
        )
        self._job_seconds = self.metrics.histogram(
            "repro_service_job_seconds",
            "submit-to-finish latency of finished jobs, per shard",
            ("shard",),
        )
        self._batch_sizes = self.metrics.histogram(
            "repro_service_coalesced_batch_size",
            "delta requests folded into one engine tick",
            buckets=(1, 2, 4, 8, 16, 32, 64),
        )
        self.metrics.register_collector(self._runtime_families)
        #: the per-service tracer (None when tracing is off)
        self.tracer: Optional[Tracer] = (
            Tracer() if (self.config.trace or self.config.trace_dir) else None
        )
        #: job id → open root span of that job's trace
        self._job_spans: "dict[str, Span]" = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "CleaningService":
        if self._running:
            return self
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.executor_workers,
            thread_name_prefix="repro-service",
        )
        self._started_at = time.monotonic()
        self._running = True
        return self

    async def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        for runtime in self._runtimes.values():
            if runtime.task is not None:
                runtime.task.cancel()
        tasks = [r.task for r in self._runtimes.values() if r.task is not None]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        for runtime in self._runtimes.values():
            while not runtime.queue.empty():
                runtime.queue.get_nowait()
        # Fail every job that never reached done/failed — queued jobs the
        # drain above orphaned AND jobs a cancelled worker had in flight
        # (cancellation hits the worker's `await run_in_executor`, which the
        # job-isolation `except Exception` deliberately does not catch) —
        # so wait()-ers wake up instead of hanging until their timeout.
        for job in self.jobs.unfinished():
            job.fail("service stopped before the job finished")
        if self.tracer is not None:
            # close the root spans of jobs the shutdown orphaned so the
            # tracer holds no forever-open spans across restarts
            for root in self._job_spans.values():
                self.tracer.end(root)
            self._job_spans.clear()
        self._pending = 0
        # worker tasks are dead; a later start() must not route onto them
        self._runtimes.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def drain(self, timeout: Optional[float] = 30.0) -> None:
        """Graceful quiesce: refuse new work and finish queued jobs.

        After this returns every queued job has finished (or ``timeout``
        expired).  Drain is one-way: the service stays started but keeps
        refusing new submissions; call :meth:`stop` afterwards to tear it
        down.
        """
        if not self._running:
            return
        self._draining = True
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._pending > 0:
            if deadline is not None and time.monotonic() >= deadline:
                break
            await asyncio.sleep(0.02)

    async def __aenter__(self) -> "CleaningService":
        return await self.start()

    async def __aexit__(self, *_exc) -> None:
        await self.stop()

    @property
    def pending(self) -> int:
        """Jobs currently queued or running."""
        return self._pending

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    async def submit(
        self,
        spec: RequestSpec,
        request_id: Optional[str] = None,
        budget: Optional[float] = None,
    ) -> Job:
        """Route and enqueue one request; returns its :class:`Job` handle.

        Raises :class:`ServiceOverloadedError` when the bounded queue is
        full, :class:`ServiceDrainingError` while a graceful shutdown is in
        progress, and ``KeyError`` (with the registry name listing) for
        unknown workload / cleaner names — all *before* anything is
        enqueued.  ``request_id`` is an optional caller-supplied correlation
        id (the ``X-Repro-Request-Id`` header); it is attached to the job and
        its root span so a caller can find its request's trace.  ``budget``
        is the request's remaining deadline in seconds
        (``X-Repro-Deadline``): work still queued when it expires is failed
        with ``error_kind="deadline"`` instead of executing for a caller that
        already gave up.
        """
        if not self._running:
            raise RuntimeError("the service is not running; call start() first")
        if self._draining:
            raise ServiceDrainingError()
        spec.validate()
        if self._pending >= self.config.max_pending:
            raise ServiceOverloadedError(self._pending, self.config.max_pending)
        shard = self.pool.route(spec)
        runtime = self._runtime_for(shard)
        kind = "clean" if isinstance(spec, CleanRequestSpec) else "deltas"
        job = self.jobs.create(kind=kind, shard=shard.key.label)
        job.request_id = request_id
        if budget is not None:
            job.deadline = time.monotonic() + budget
        if self.tracer is not None:
            # the job's root span: opened at enqueue, closed at finalize, so
            # the exported tree covers queueing, dispatch and execution
            root = self.tracer.begin(
                "service.request",
                parent=None,
                job=job.id,
                kind=kind,
                shard=shard.key.label,
            )
            if request_id is not None:
                root.set(request_id=request_id)
            self._job_spans[job.id] = root
        self._pending += 1
        runtime.queue.put_nowait((job, spec))
        return job

    async def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until the job finishes (done or failed); returns it."""
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        await asyncio.wait_for(job.done_event.wait(), timeout)
        return job

    def job(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        uptime = time.monotonic() - self._started_at if self._started_at else 0.0
        if not self._running:
            status = "stopped"
        elif self._draining:
            status = "draining"
        else:
            status = "ok"
        return {
            "status": status,
            "uptime_s": round(uptime, 3),
            "pending": self._pending,
            "shards": len(self.pool.shards()),
        }

    def stats(self) -> dict:
        """The ``GET /stats`` payload: queue, latency, shards, cache counters."""
        shard_stats = self.pool.stats()
        depths = self._queue_depths()
        for entry in shard_stats:
            entry["queue_depth"] = depths.get(entry["shard"], 0)
        return {
            **self.healthz(),
            "queue": {
                "pending": self._pending,
                "max_pending": self.config.max_pending,
                "depth_per_shard": depths,
            },
            "jobs": self.jobs.counts(),
            "latency": self.latency.as_dict(),
            "coalescing": {
                "ticks": sum(s["ticks"] for s in shard_stats),
                "coalesced_requests": sum(
                    s["coalesced_requests"] for s in shard_stats
                ),
                "batch_size": self._batch_sizes._default().summary(),
            },
            "shards": shard_stats,
            "distance": global_distance_stats().as_dict(),
        }

    def _queue_depths(self) -> dict:
        """Shard label → jobs currently sitting in that shard's queue."""
        return {
            runtime.shard.key.label: runtime.queue.qsize()
            for runtime in self._runtimes.values()
        }

    def metrics_text(self) -> str:
        """The ``GET /metrics`` body: this service + the process registry."""
        return self.metrics.render_prometheus() + REGISTRY.render_prometheus()

    def _runtime_families(self) -> list:
        """Scrape-time gauges over live service state (no double bookkeeping)."""
        latency = self.latency.as_dict()
        families = [
            {
                "name": "repro_service_uptime_seconds",
                "type": "gauge",
                "help": "seconds since the service started",
                "samples": [({}, round(self.healthz()["uptime_s"], 3))],
            },
            {
                "name": "repro_service_pending_jobs",
                "type": "gauge",
                "help": "jobs currently queued or running",
                "samples": [({}, self._pending)],
            },
            {
                "name": "repro_service_queue_depth",
                "type": "gauge",
                "help": "queued jobs per shard",
                "samples": [
                    ({"shard": label}, depth)
                    for label, depth in self._queue_depths().items()
                ],
            },
            {
                "name": "repro_service_latency_window",
                "type": "gauge",
                "help": "sliding-window latency readout (count, p50_s, ...)",
                "samples": [
                    ({"stat": key}, value)
                    for key, value in latency.items()
                    if isinstance(value, (int, float))
                ],
            },
        ]
        return families

    # ------------------------------------------------------------------
    # shard workers
    # ------------------------------------------------------------------
    def _runtime_for(self, shard: Shard) -> _ShardRuntime:
        runtime = self._runtimes.get(shard.key)
        if runtime is None:
            runtime = _ShardRuntime(shard)
            runtime.task = asyncio.get_running_loop().create_task(
                self._shard_worker(runtime), name=f"shard-{shard.key.label}"
            )
            self._runtimes[shard.key] = runtime
        return runtime

    async def _shard_worker(self, runtime: _ShardRuntime) -> None:
        """Drain-and-execute loop: one tick (plus queued cleans) per wake-up."""
        while True:
            items = [await runtime.queue.get()]
            while True:
                try:
                    items.append(runtime.queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            delta_items = [
                (job, spec) for job, spec in items if isinstance(spec, DeltaRequestSpec)
            ]
            clean_items = [
                (job, spec) for job, spec in items if isinstance(spec, CleanRequestSpec)
            ]
            if delta_items:
                await self._run_tick(runtime.shard, delta_items)
            for job, spec in clean_items:
                await self._run_clean(runtime.shard, job, spec)

    def _traced(
        self, parent: Optional[Span], name: str, attrs: dict, fn: Callable
    ) -> Callable:
        """Wrap an executor callable in a span parented to the job's root.

        Context variables do not propagate into executor threads, so the
        service tracer and the root span are re-attached explicitly on the
        thread before the work span opens.  Without a tracer the callable is
        returned unwrapped (zero overhead on the hot path).
        """
        if self.tracer is None:
            return fn

        def run():
            with use_tracer(self.tracer), self.tracer.attach(parent):
                with span(name, **attrs):
                    return fn()

        return run

    async def _run_clean(
        self, shard: Shard, job: Job, spec: CleanRequestSpec
    ) -> None:
        if job.expired():
            job.fail("deadline exceeded before execution", kind="deadline")
            self._finalize(job)
            return
        job.mark_running()
        loop = asyncio.get_running_loop()
        work = self._traced(
            self._job_spans.get(job.id),
            "shard.clean",
            {"shard": shard.key.label},
            partial(self._execute_clean, shard, spec),
        )
        try:
            result, report = await loop.run_in_executor(self._executor, work)
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            job.fail(f"{type(exc).__name__}: {exc}")
        else:
            job.finish(result, report)
            shard.jobs_done += 1
        self._finalize(job)

    def _execute_clean(self, shard: Shard, spec: CleanRequestSpec):
        """Thread-side: resolve the data, run the shard's warm session."""
        table, ground_truth = self.pool.resolve_clean_inputs(spec)
        report = shard.session.run(table=table, ground_truth=ground_truth)
        result = {
            "kind": "clean",
            "shard": shard.key.label,
            "backend": report.backend,
            "signature": report_signature(report),
            "metrics": {
                key: round(value, 6) for key, value in report.summary().items()
            },
        }
        if spec.include_report:
            result["report"] = report.to_json_dict()
        return result, report

    async def _run_tick(self, shard: Shard, items: list) -> None:
        # Loop-side triage before any executor time is spent: requests whose
        # deadline already passed get a structured "deadline" failure; only
        # what survives is dispatched as the coalesced tick.
        live = []
        for job, spec in items:
            if job.expired():
                job.fail("deadline exceeded before execution", kind="deadline")
                self._finalize(job)
                continue
            live.append((job, spec))
        if not live:
            return
        jobs = [job for job, _spec in live]
        specs = [spec for _job, spec in live]
        for job in jobs:
            job.mark_running()
        self._batch_sizes.observe(len(specs))
        # The coalesced tick executes once, under the *first* job's trace;
        # every other folded job gets a marker span under its own root, so
        # each job still yields one connected tree.
        if self.tracer is not None:
            for job in jobs[1:]:
                marker = self.tracer.begin(
                    "shard.tick",
                    parent=self._job_spans.get(job.id),
                    shard=shard.key.label,
                    coalesced_into=jobs[0].id,
                )
                self.tracer.end(marker)
        work = self._traced(
            self._job_spans.get(jobs[0].id),
            "shard.tick",
            {"shard": shard.key.label, "requests": len(specs)},
            partial(self._execute_tick, shard, specs),
        )
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(self._executor, work)
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            message = f"{type(exc).__name__}: {exc}"
            for job in jobs:
                job.fail(message)
        else:
            for job, result in zip(jobs, results):
                if "error" in result:
                    job.fail(result["error"], kind=result.get("error_kind", "internal"))
                else:
                    job.finish(result)
                    shard.jobs_done += 1
        for job in jobs:
            self._finalize(job)

    def _execute_tick(self, shard: Shard, specs: list) -> list:
        """Thread-side: one coalesced engine tick for all queued delta specs.

        Requests carrying an ``idempotency_key`` the shard already applied
        are answered from the shard's memo (a byte-identical replay of the
        original ack) without touching the engine — the exactly-once half of
        the client's at-least-once retries.  Only fresh requests reach
        :meth:`_apply_specs`.
        """
        results: list = [None] * len(specs)
        fresh: list = []  # (index, spec) pairs that actually apply
        first_seen: dict = {}  # key -> index of its first fresh occurrence
        aliases: list = []  # (index, first_index): same key twice in one tick
        for index, spec in enumerate(specs):
            key = spec.idempotency_key
            if key is not None and key in shard.applied_keys:
                results[index] = shard.replayed_result(key)
            elif key is not None and key in first_seen:
                aliases.append((index, first_seen[key]))
            else:
                if key is not None:
                    first_seen[key] = index
                fresh.append((index, spec))
        if fresh:
            applied = self._apply_specs(shard, [spec for _i, spec in fresh])
            for (index, _spec), result in zip(fresh, applied):
                results[index] = result
        for index, first_index in aliases:
            # the same key twice in one tick: the copy gets the first one's
            # answer — its ack, or its failure (then nothing was applied)
            results[index] = results[first_index]
        return results

    def _apply_specs(self, shard: Shard, specs: list) -> list:
        """Thread-side: really apply fresh delta specs as one engine tick.

        If the *combined* batch fails validation (e.g. two requests deleting
        the same tuple), fall back to applying each request as its own batch
        so only the offending requests fail — validation happens before any
        mutation, so the fallback starts from untouched state.  Any other
        exception propagates: the whole tick fails as an internal error.
        """
        engine = self._ensure_engine(shard, specs[0])
        plan = plan_tick([spec.deltas for spec in specs])
        try:
            batch_report = engine.apply_batch(plan.batch)
        except (KeyError, ValueError):
            return self._execute_per_request(shard, specs)
        results = [
            self._delta_result(
                engine,
                batch_report,
                requests=len(specs),
                deltas=plan.deltas_of(index),
                include_table=spec.include_table,
            )
            for index, spec in enumerate(specs)
        ]
        for spec, result in zip(specs, results):
            if spec.idempotency_key:
                shard.remember_key(spec.idempotency_key, result)
        shard.ticks += 1
        shard.coalesced_requests += len(specs)
        return results

    def _ensure_engine(self, shard: Shard, spec: DeltaRequestSpec):
        """Return the shard's live stream engine, creating it on first use."""
        if shard.stream is not None:
            return shard.stream
        # the schema lookup can build a (1-tuple) workload instance, so
        # resolve it only for the tick that actually creates the engine
        return shard.stream_engine(self.pool.schema_for(spec))

    def _execute_per_request(self, shard: Shard, specs: list) -> list:
        results = []
        for spec in specs:
            try:
                engine = self._ensure_engine(shard, spec)
                report = engine.apply_batch(spec.deltas)
            except (KeyError, ValueError) as exc:
                # validation rejected the request's deltas before mutating
                # anything: that is the client's mistake, not a server bug
                results.append(
                    {
                        "error": f"{type(exc).__name__}: {exc}",
                        "error_kind": "bad_request",
                    }
                )
                continue
            result = self._delta_result(
                engine,
                report,
                requests=1,
                deltas=len(spec.deltas),
                include_table=spec.include_table,
            )
            if spec.idempotency_key:
                shard.remember_key(spec.idempotency_key, result)
            shard.ticks += 1
            shard.coalesced_requests += 1
            results.append(result)
        return results

    @staticmethod
    def _delta_result(
        engine, report, requests: int, deltas: int, include_table: bool
    ) -> dict:
        """One request's demultiplexed view of the tick it was folded into.

        The cleaned-table snapshot is the shard state *after the whole
        tick* — coalesced requests observe each other's deltas, exactly as
        if they had been applied back to back.
        """
        result = {
            "kind": "deltas",
            "tick": report.sequence,
            "coalesced_requests": requests,
            "deltas": deltas,
            "applied": dict(report.delta_counts),
            "affected_blocks": list(report.affected_blocks),
            "evicted_tids": list(report.evicted_tids),
            "tuples_total": report.tuples_total,
        }
        if include_table:
            result["cleaned"] = table_to_json_dict(engine.cleaned)
        return result

    def _finalize(self, job: Job) -> None:
        self._pending -= 1
        if job.duration is not None:
            self.latency.record(job.duration)
            self._job_seconds.labels(shard=job.shard).observe(job.duration)
        self._jobs_total.labels(kind=job.kind, status=job.status.value).inc()
        root = self._job_spans.pop(job.id, None)
        if root is not None and self.tracer is not None:
            root.set(job_status=job.status.value)
            if job.error is not None:
                root.status = "error"
                root.error = job.error
            self.tracer.end(root)
            if self.config.trace_dir:
                self._export_trace(job, root)

    def _export_trace(self, job: Job, root: Span) -> None:
        """Write (and free) one finished job's span tree as Chrome JSON."""
        spans = self.tracer.pop_trace(root.trace_id)
        directory = Path(self.config.trace_dir)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"trace-{job.id}.json"
        path.write_text(json.dumps(to_chrome(spans)), encoding="utf-8")
