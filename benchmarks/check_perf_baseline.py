"""Distance-call regression gate for CI (the bench-smoke job).

Cleans the hospital-sample workload with the batch pipeline and compares the
distance-engine counters against the checked-in baseline
(``benchmarks/baselines/hospital_sample_distance.json``).  The counts are
deterministic for a fixed workload — every best-so-far search iterates its
candidates in a canonical order — so a count creeping up means a fast path
stopped firing: the pair memo, the length-difference bound or the
Levenshtein kernel's early exit.  The job fails when ``distance_calls`` or
``raw_evaluations`` (exact distance computations) regress by more than
20 %.

Usage::

    python benchmarks/check_perf_baseline.py          # gate (installed pkg,
    python benchmarks/check_perf_baseline.py --write  # or PYTHONPATH=src)
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.errors.injector import ErrorSpec
from repro.experiments.harness import session_for_instance
from repro.perf import global_distance_stats
from repro.workloads.registry import get_workload_generator

BASELINE_PATH = Path(__file__).parent / "baselines" / "hospital_sample_distance.json"

#: counters gated against the baseline, with the allowed regression factor
GATED = {"distance_calls": 1.2, "raw_evaluations": 1.2}

#: fixed workload so the counts are reproducible run to run
TUPLES = 120
WORKLOAD_SEED = 7
ERROR_RATE = 0.10
ERROR_SEED = 13


def measure() -> dict:
    """Clean the fixed hospital-sample instance and return engine counters."""
    workload = get_workload_generator(
        "hospital-sample", tuples=TUPLES, seed=WORKLOAD_SEED
    ).build()
    instance = workload.make_instance(
        ErrorSpec(error_rate=ERROR_RATE, seed=ERROR_SEED)
    )
    before = global_distance_stats()
    report = session_for_instance(instance).run()
    delta = global_distance_stats().diff(before)
    return {
        "workload": "hospital-sample",
        "tuples": TUPLES,
        "error_rate": ERROR_RATE,
        "f1": round(report.f1, 4),
        "distance_calls": delta.calls,
        "raw_evaluations": delta.raw_evaluations,
        "cache_hit_rate": round(delta.hit_rate, 4),
    }


def main(argv: list) -> int:
    measured = measure()
    print("measured:", json.dumps(measured, sort_keys=True))
    if "--write" in argv:
        BASELINE_PATH.parent.mkdir(exist_ok=True)
        BASELINE_PATH.write_text(json.dumps(measured, indent=1, sort_keys=True) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0
    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; run with --write first", file=sys.stderr)
        return 2
    baseline = json.loads(BASELINE_PATH.read_text())
    print("baseline:", json.dumps(baseline, sort_keys=True))
    failures = []
    for counter, allowed_factor in GATED.items():
        limit = baseline[counter] * allowed_factor
        if measured[counter] > limit:
            failures.append(
                f"{counter} regressed: {measured[counter]} > "
                f"{limit:.0f} ({allowed_factor:.0%} of baseline {baseline[counter]})"
            )
    if failures:
        for failure in failures:
            print("FAIL:", failure, file=sys.stderr)
        return 1
    print("ok: distance-call counts within 20% of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
