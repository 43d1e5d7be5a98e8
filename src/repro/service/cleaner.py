"""The service as a registered cleaner: route a request through the queue.

``CleaningSession(cleaner="service")`` (or the ``service_replay`` experiment
spec) runs a normal :class:`~repro.session.CleaningRequest` through a fresh
in-process :class:`~repro.service.service.CleaningService` — submission,
shard routing, executor hop and all — and returns the job's live report.
Since the whole point of the service layer is that it *changes nothing about
the answer*, this cleaner lets the declarative experiment grid assert
exactly that: a ``service`` cell must reproduce the ``mlnclean`` cell of the
same grid position bit for bit (modulo wall-clock).

Options: ``cleaner`` (the algorithm the service routes to, default
``"mlnclean"``) and its factory options, e.g.
``ServiceCleaner(cleaner="mlnclean", backend="streaming")``.
"""

from __future__ import annotations

import asyncio

from repro.core.report import CleaningReport
from repro.service.codec import CleanRequestSpec
from repro.service.service import CleaningService, ServiceConfig
from repro.session.cleaners import CleaningRequest
from repro.session.cleaners import register_cleaner


class ServiceCleaner:
    """Run requests through an in-process cleaning service (see module doc)."""

    name = "service"

    def __init__(self, cleaner: str = "mlnclean", workers: int = 2, **options):
        if cleaner.lower() == self.name:
            raise ValueError("the service cleaner cannot route to itself")
        # normalized like the registry itself, so callers comparing against
        # the routed-to algorithm (experiments/spec.py) match any spelling
        self.inner = cleaner.lower()
        self.options = dict(options)
        self.workers = workers

    def run(self, request: CleaningRequest) -> CleaningReport:
        spec = CleanRequestSpec(
            table=request.dirty,
            rules=list(request.rules),
            ground_truth=request.ground_truth,
            cleaner=self.inner,
            options=dict(self.options),
            config=request.config,
            detectors=request.detectors,
        )
        return asyncio.run(self._run_spec(spec))

    async def _run_spec(self, spec: CleanRequestSpec) -> CleaningReport:
        async with CleaningService(
            ServiceConfig(executor_workers=self.workers)
        ) as service:
            job = await service.submit(spec)
            await service.wait(job.id)
            if job.report is None:
                raise RuntimeError(f"service job failed: {job.error}")
            return job.report


register_cleaner("service", ServiceCleaner)
