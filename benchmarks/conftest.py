"""Shared configuration of the benchmark suite.

Every benchmark regenerates one figure or table of the paper through the
corresponding harness in :mod:`repro.experiments` and prints the resulting
rows, so running ``pytest benchmarks/ --benchmark-only`` produces both the
timing numbers and the accuracy tables.

The workload sizes are scaled down (hundreds of tuples instead of the paper's
30 k-6 M) so the full suite finishes in minutes; pass ``--repro-tuples`` to
scale them up.

Alongside the rendered ``results/*.txt`` tables, the suite writes
``results/BENCH_perf.json``: per-figure wall-clock, distance-call counts,
raw metric evaluations, cache hit rate, and a per-stage wall-clock
breakdown, measured by diffing the process-global
:class:`repro.perf.DistanceStats` and the ``repro_stage_seconds_total``
metric around each harness run.  CI archives the file so the perf
trajectory is tracked across PRs.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.obs import stage_seconds_snapshot
from repro.perf import global_distance_stats

#: rendered experiment tables are also written here so the figures/tables can
#: be inspected after a quiet benchmark run
RESULTS_DIR = Path(__file__).parent / "results"

#: experiment name → perf record collected while the suite runs
_PERF_RECORDS: dict = {}


def pytest_addoption(parser):
    parser.addoption(
        "--repro-tuples",
        action="store",
        type=int,
        default=700,
        help="workload size (tuples) used by the figure/table benchmarks",
    )


@pytest.fixture(scope="session")
def bench_tuples(request) -> int:
    return request.config.getoption("--repro-tuples")


def run_and_report(benchmark, harness, **kwargs):
    """Run one experiment harness under pytest-benchmark and print its table."""
    stats_before = global_distance_stats()
    stages_before = stage_seconds_snapshot()
    started = time.perf_counter()
    result = benchmark.pedantic(lambda: harness(**kwargs), rounds=1, iterations=1)
    wall_seconds = time.perf_counter() - started
    delta = global_distance_stats().diff(stats_before)
    stages_after = stage_seconds_snapshot()
    _PERF_RECORDS[result.experiment] = {
        "wall_seconds": round(wall_seconds, 4),
        "distance_calls": delta.calls,
        "raw_evaluations": delta.raw_evaluations,
        "cache_hits": delta.cache_hits,
        "cache_hit_rate": round(delta.hit_rate, 4),
        "length_prunes": delta.length_prunes,
        "band_prunes": delta.band_prunes,
        "value_short_circuits": delta.value_short_circuits,
        "batch_queries": delta.batch_queries,
        "qgram_candidates": delta.qgram_candidates,
        "qgram_filtered": delta.qgram_filtered,
        # per-stage wall-clock attributed by the repro_stage_seconds_total
        # counter ("<backend>.<stage>" keys), diffed around the harness run
        "stage_seconds": {
            key: round(seconds - stages_before.get(key, 0.0), 4)
            for key, seconds in sorted(stages_after.items())
            if seconds - stages_before.get(key, 0.0) > 0.0
        },
    }
    rendered = result.render()
    print()
    print(rendered)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{result.experiment}.txt").write_text(rendered + "\n")
    return result


@pytest.fixture
def report_experiment():
    return run_and_report


def pytest_sessionfinish(session, exitstatus):
    """Write the machine-readable perf summary once the suite is done."""
    if not _PERF_RECORDS:
        return
    totals = {
        key: sum(record[key] for record in _PERF_RECORDS.values())
        for key in (
            "wall_seconds",
            "distance_calls",
            "raw_evaluations",
            "cache_hits",
            "qgram_candidates",
            "qgram_filtered",
        )
    }
    totals["wall_seconds"] = round(totals["wall_seconds"], 4)
    totals["cache_hit_rate"] = round(
        totals["cache_hits"] / totals["distance_calls"], 4
    ) if totals["distance_calls"] else 0.0
    payload = {
        "tuples": session.config.getoption("--repro-tuples", default=700),
        "experiments": dict(sorted(_PERF_RECORDS.items())),
        "totals": totals,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_perf.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n"
    )
