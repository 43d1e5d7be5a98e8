"""F1 gate for the fig06 grid (CI).

Runs the fig06 error-percentage experiment (both datasets, all error rates,
MLNClean and the HoloClean comparison) at a fixed 300 tuples and asserts
that every F1 cell is *exactly* equal to the checked-in value in
``benchmarks/baselines/fig06_distance_budget.json``.  The distance engine's
q-gram filter and best-so-far pruning are exactness-preserving by
construction, so any drift is a correctness bug, not noise.  The distance
counters are printed as diagnostics only; they are not gated.

``--write`` re-captures the F1 map after an *intentional* workload or
semantics change::

    python benchmarks/check_fig06_budget.py           # gate
    python benchmarks/check_fig06_budget.py --write   # recalibrate baseline
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.experiments import run_experiment
from repro.perf import global_distance_stats

BASELINE_PATH = Path(__file__).parent / "baselines" / "fig06_distance_budget.json"

#: fixed scale so the F1 cells are reproducible run to run
TUPLES = 300
SEED = 7


def measure() -> dict:
    before = global_distance_stats()
    result = run_experiment("fig06", tuples=TUPLES, seed=SEED)
    delta = global_distance_stats().diff(before)
    f1: dict = {}
    for row in result.rows:
        dataset = f1.setdefault(row["dataset"], {})
        system = dataset.setdefault(row["system"], {})
        system[str(row["error_rate"])] = row["f1"]
    return {
        "tuples": TUPLES,
        "seed": SEED,
        "distance_calls": delta.calls,
        "raw_evaluations": delta.raw_evaluations,
        "qgram_filtered": delta.qgram_filtered,
        "f1": f1,
    }


def main(argv: list) -> int:
    measured = measure()
    print(
        "measured:",
        json.dumps({k: v for k, v in measured.items() if k != "f1"}, sort_keys=True),
    )
    if "--write" in argv:
        payload = {key: measured[key] for key in ("tuples", "seed", "f1")}
        payload["comment"] = "fig06 F1 cells at 300 tuples; every cell is gated for exact equality"
        BASELINE_PATH.parent.mkdir(exist_ok=True)
        BASELINE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0
    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}", file=sys.stderr)
        return 2
    baseline = json.loads(BASELINE_PATH.read_text())
    failures = []
    for dataset, systems in baseline["f1"].items():
        for system, cells in systems.items():
            for rate, expected in cells.items():
                got = measured["f1"].get(dataset, {}).get(system, {}).get(rate)
                if got != expected:
                    failures.append(
                        f"F1 drifted: {dataset}/{system}@{rate}: "
                        f"expected {expected}, measured {got}"
                    )
    if failures:
        for failure in failures:
            print("FAIL:", failure, file=sys.stderr)
        return 1
    print(
        f"ok: all "
        f"{sum(len(c) for s in baseline['f1'].values() for c in s.values())} "
        f"F1 cells unchanged"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
