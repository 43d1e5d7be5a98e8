"""Sensitivity to the error-type mix on the sparse CAR workload (Figure 7).

The paper's key qualitative finding on CAR is that HoloClean is sensitive to
the error-type ratio (it struggles when all errors are typos, because typos
never appear among the clean values it trains on), while MLNClean handles
typos well thanks to the distance-based AGP/RSC stages.  This example sweeps
the replacement-error ratio Rret from 0 (all typos) to 1 (all replacements)
and prints both systems' F1.

Run with::

    python examples/car_error_types.py [tuples]
"""

import sys

from repro.experiments import run_experiment


def main(tuples: int = 1500) -> None:
    # the checked-in fig07 spec already sweeps Rret over 0, 0.25, ..., 1
    result = run_experiment("fig07", workloads=["car"], tuples=tuples)
    print(result.render())
    print()
    mlnclean_at_typos = [
        row["f1"]
        for row in result.rows
        if row["system"] == "MLNClean" and row["replacement_ratio"] == 0.0
    ][0]
    holoclean_at_typos = [
        row["f1"]
        for row in result.rows
        if row["system"] == "HoloClean" and row["replacement_ratio"] == 0.0
    ][0]
    print(
        "All-typo setting (Rret = 0): "
        f"MLNClean F1 = {mlnclean_at_typos}, HoloClean F1 = {holoclean_at_typos}"
    )


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 1500
    main(size)
