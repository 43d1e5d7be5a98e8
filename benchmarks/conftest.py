"""Shared configuration of the benchmark suite.

Every benchmark regenerates one figure or table of the paper through the
corresponding harness in :mod:`repro.experiments` and prints the resulting
rows, so running ``pytest benchmarks/ --benchmark-only`` produces both the
timing numbers and the accuracy tables.

The printed tables keep their wall-clock columns; the tracked
``results/*.txt`` files drop them (:data:`TIMING_COLUMNS`), so a diff in a
tracked file always means the cleaning behaviour changed.  Wall-clock is
measured by ``benchmarks/perf``.

The workload sizes are scaled down (hundreds of tuples instead of the paper's
30 k-6 M) so the full suite finishes in minutes; pass ``--repro-tuples`` to
scale them up.

Alongside the rendered ``results/*.txt`` tables, the suite writes
``results/BENCH_perf.json``: per-figure distance-call counts, raw metric
evaluations and cache hit rate, measured by diffing the process-global
:class:`repro.perf.DistanceStats` around each harness run.  CI archives the
file so the counter trajectory is tracked across PRs.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.perf import global_distance_stats

#: rendered experiment tables are also written here so the figures/tables can
#: be inspected after a quiet benchmark run
RESULTS_DIR = Path(__file__).parent / "results"

#: wall-clock columns left out of the tracked ``results/*.txt`` tables
TIMING_COLUMNS = frozenset(
    {
        "runtime_s",
        "sequential_s",
        "incremental_s",
        "full_reclean_s",
        "speedup",
        "speedup_vs_first",
    }
)

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
    result = benchmark.pedantic(lambda: harness(**kwargs), rounds=1, iterations=1)
    delta = global_distance_stats().diff(stats_before)
    _PERF_RECORDS[result.experiment] = {
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
    }
    print()
    print(result.render())
    tracked = replace(
        result,
        rows=[
            {key: value for key, value in row.items() if key not in TIMING_COLUMNS}
            for row in result.rows
        ],
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{result.experiment}.txt").write_text(tracked.render() + "\n")
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
            "distance_calls",
            "raw_evaluations",
            "cache_hits",
            "qgram_candidates",
            "qgram_filtered",
        )
    }
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
