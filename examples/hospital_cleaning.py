"""Clean a synthetic HAI (hospital infections) workload and compare systems.

This example mirrors the paper's main comparison (Figure 6) on one
configuration: a HAI-like table with the seven Table-4 constraints, 5 %
injected errors (half typos, half replacement errors), cleaned through a
:class:`repro.CleaningSession` (batch backend) and by the HoloClean-style
baseline with perfect error detection.

Run with::

    python examples/hospital_cleaning.py [tuples]
"""

import sys

from repro import CleaningSession
from repro.baselines import HoloCleanBaseline
from repro.errors import ErrorSpec
from repro.workloads import HAIWorkloadGenerator, recommended_config


def main(tuples: int = 2000) -> None:
    print(f"Generating a clean HAI workload with {tuples} tuples ...")
    workload = HAIWorkloadGenerator(tuples=tuples).build()
    print("Rules:")
    for rule in workload.rules:
        print(f"  {rule.name} ({rule.kind}): {rule}")

    instance = workload.make_instance(ErrorSpec(error_rate=0.05, replacement_ratio=0.5))
    print(
        f"Injected {instance.injected_errors} errors "
        f"({instance.error_rate:.1%} of all attribute values)\n"
    )

    session = CleaningSession(
        rules=instance.rules,
        config=recommended_config("hai"),
        table=instance.dirty,
        ground_truth=instance.ground_truth,
    )
    print(f"Running MLNClean (tau={session.config.abnormal_threshold}) ...")
    report = session.run()
    print(report.describe())
    print()

    print("Running the HoloClean baseline (perfect detection) ...")
    baseline = HoloCleanBaseline().clean(
        instance.dirty, instance.rules, instance.ground_truth
    )
    assert baseline.accuracy is not None
    print(
        f"HoloClean: precision={baseline.accuracy.precision:.3f} "
        f"recall={baseline.accuracy.recall:.3f} f1={baseline.accuracy.f1:.3f} "
        f"runtime={baseline.runtime:.2f}s"
    )
    print()
    winner = "MLNClean" if report.f1 >= baseline.f1 else "HoloClean"
    print(f"Higher F1 on this run: {winner}")


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    main(size)
