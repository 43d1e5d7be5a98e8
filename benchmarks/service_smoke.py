"""CI smoke driver for the cleaning service.

Fires N concurrent ``POST /clean`` requests against an already-running
``python -m repro.service serve`` (the ``service-smoke`` CI job boots one in
the background), asserts every response is byte-identical to a batch
``CleaningReport`` computed locally through a standalone session, and writes
the server's ``/stats`` snapshot to a JSON artifact.

Usage::

    python -m repro.service serve --port 8735 &
    python benchmarks/service_smoke.py --port 8735 --requests 24 \\
        --out service-stats.json
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.experiments.harness import prepare_instance
from repro.service import (
    ServiceClient,
    ServiceError,
    canonical_json,
    report_signature,
    report_signature_dict,
)
from repro.session import CleaningSession
from repro.workloads.registry import recommended_config

WORKLOAD = "hospital-sample"
TUPLES = 48
ERROR_RATE = 0.1


def batch_reference():
    """The pre-service answer: one standalone session run."""
    instance = prepare_instance(WORKLOAD, tuples=TUPLES, error_rate=ERROR_RATE)
    session = CleaningSession(
        rules=instance.rules, config=recommended_config(WORKLOAD)
    )
    return session.run(table=instance.dirty, ground_truth=instance.ground_truth)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8735)
    parser.add_argument("--requests", type=int, default=24)
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--out", default="service-stats.json")
    args = parser.parse_args(argv)

    client = ServiceClient(host=args.host, port=args.port, timeout=600)
    health = client.wait_until_healthy(timeout=60)
    print(f"server healthy: {health}")

    reference = batch_reference()
    expected_signature = report_signature(reference)
    expected_masked = canonical_json(report_signature_dict(reference))

    def one_request(index: int) -> dict:
        # a server-side failure answers 4xx/5xx; count it instead of letting
        # one bad job crash the driver before the /stats artifact is written
        try:
            return client.clean(
                workload=WORKLOAD, tuples=TUPLES, error_rate=ERROR_RATE, timeout=300
            )
        except ServiceError as exc:
            return {
                "id": f"request-{index}",
                "status": f"http-{exc.status}",
                "error": str(exc),
            }

    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        jobs = list(pool.map(one_request, range(args.requests)))

    failures = 0
    for job in jobs:
        if job["status"] != "done":
            print(f"FAIL: job {job['id']} ended {job['status']}: {job.get('error')}")
            failures += 1
            continue
        result = job["result"]
        if result["signature"] != expected_signature:
            print(f"FAIL: job {job['id']} signature drifted from the batch report")
            failures += 1
        elif canonical_json(report_signature_dict(result["report"])) != expected_masked:
            print(f"FAIL: job {job['id']} report JSON differs from the batch report")
            failures += 1
    print(
        f"{len(jobs) - failures}/{len(jobs)} concurrent responses byte-identical "
        f"to the batch CleaningReport (signature {expected_signature[:12]}…)"
    )

    stats = client.stats()
    Path(args.out).write_text(json.dumps(stats, indent=1) + "\n", encoding="utf-8")
    print(f"/stats snapshot written to {args.out}")
    print(
        f"latency: p50={stats['latency']['p50_s']}s p95={stats['latency']['p95_s']}s "
        f"over {stats['latency']['count']} jobs; "
        f"shards={len(stats['shards'])}, "
        f"distance cache hit rate={stats['distance']['hit_rate']}"
    )

    shard_jobs = sum(shard["jobs_done"] for shard in stats["shards"])
    if shard_jobs < args.requests:
        print(f"FAIL: shards report only {shard_jobs} completed jobs")
        failures += 1
    if stats["jobs"]["failed"] > 0:
        print(f"FAIL: server reports {stats['jobs']['failed']} failed jobs")
        failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
