"""Jobs: the unit of work the service queues, runs and reports on.

Every accepted request becomes a :class:`Job` with a stable id, a status
machine (``queued → running → done | failed``) and submit/start/finish
timestamps — the raw material of the ``/stats`` latency percentiles.  The
:class:`JobStore` keeps jobs addressable for ``GET /jobs/<id>`` and prunes
the oldest *finished* jobs beyond a retention bound so a long-lived server
does not grow without limit.

Jobs are created and mutated on the service's event loop only; the
``asyncio.Event`` lets any number of waiters (the ``wait=true`` HTTP path,
in-process callers) block until completion without polling.
"""

from __future__ import annotations

import asyncio
import enum
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from repro.core.report import CleaningReport


class JobStatus(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.value


#: statuses a job can no longer leave
FINISHED = (JobStatus.DONE, JobStatus.FAILED)


@dataclass
class Job:
    """One queued cleaning request and (eventually) its outcome."""

    id: str
    #: "clean" or "deltas"
    kind: str
    #: label of the shard the job was routed to
    shard: str
    status: JobStatus = JobStatus.QUEUED
    #: ``time.monotonic()`` stamps (latency math must survive clock jumps)
    submitted: float = field(default_factory=time.monotonic)
    started: Optional[float] = None
    finished: Optional[float] = None
    #: JSON-safe result payload (what ``GET /jobs/<id>`` serves)
    result: Optional[dict] = None
    #: the live report, for in-process callers (never serialized)
    report: Optional[CleaningReport] = None
    error: Optional[str] = None
    #: who caused a failure: "bad_request" (the client's deltas/inputs),
    #: "deadline" (the request's budget ran out before it executed) or
    #: "internal" (a genuine bug) — decides the front end's 400 / 504 / 500
    error_kind: Optional[str] = None
    #: caller-supplied correlation id (``X-Repro-Request-Id``), echoed back
    #: and set on the job's root span
    request_id: Optional[str] = None
    #: absolute ``time.monotonic()`` deadline from the request's budget
    #: (``X-Repro-Deadline``); queued work past it is rejected with a 504
    #: instead of burning executor time nobody is waiting for
    deadline: Optional[float] = None
    done_event: asyncio.Event = field(default_factory=asyncio.Event)

    def expired(self) -> bool:
        """Whether the request's deadline has already passed."""
        return self.deadline is not None and time.monotonic() >= self.deadline

    @property
    def duration(self) -> Optional[float]:
        """Submit-to-finish wall-clock seconds (None while unfinished)."""
        if self.finished is None:
            return None
        return self.finished - self.submitted

    def mark_running(self) -> None:
        self.status = JobStatus.RUNNING
        self.started = time.monotonic()

    def finish(self, result: dict, report: Optional[CleaningReport] = None) -> None:
        self.status = JobStatus.DONE
        self.result = result
        self.report = report
        self.finished = time.monotonic()
        self.done_event.set()

    def fail(self, error: str, kind: str = "internal") -> None:
        self.status = JobStatus.FAILED
        self.error = error
        self.error_kind = kind
        self.finished = time.monotonic()
        self.done_event.set()

    def as_json_dict(self, include_result: bool = True) -> dict:
        payload: dict = {
            "id": self.id,
            "kind": self.kind,
            "shard": self.shard,
            "status": self.status.value,
        }
        if self.duration is not None:
            payload["duration_s"] = round(self.duration, 6)
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        if self.error is not None:
            payload["error"] = self.error
            payload["error_kind"] = self.error_kind or "internal"
        if include_result and self.result is not None:
            payload["result"] = self.result
        return payload


class JobStore:
    """Id-addressable job registry with bounded retention of finished jobs."""

    def __init__(self, retain_finished: int = 2048):
        if retain_finished < 1:
            raise ValueError("the job store needs retain_finished >= 1")
        self.retain_finished = retain_finished
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._counter = 0

    def create(self, kind: str, shard: str) -> Job:
        self._counter += 1
        job = Job(id=f"j{self._counter:06d}", kind=kind, shard=shard)
        self._jobs[job.id] = job
        self._prune()
        return job

    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def unfinished(self) -> list:
        """Jobs still queued or running (what a shutdown must fail)."""
        return [job for job in self._jobs.values() if job.status not in FINISHED]

    def counts(self) -> dict:
        """Jobs per status, plus the lifetime total."""
        counts = {status.value: 0 for status in JobStatus}
        for job in self._jobs.values():
            counts[job.status.value] += 1
        counts["total_submitted"] = self._counter
        return counts

    def __len__(self) -> int:
        return len(self._jobs)

    def _prune(self) -> None:
        """Drop the oldest finished jobs beyond the retention bound."""
        finished = [job.id for job in self._jobs.values() if job.status in FINISHED]
        for job_id in finished[: max(0, len(finished) - self.retain_finished)]:
            del self._jobs[job_id]
