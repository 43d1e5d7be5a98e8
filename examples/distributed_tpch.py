"""Distributed MLNClean on the TPC-H workload (Section 6 / Table 6).

Runs a :class:`repro.CleaningSession` on the "distributed" backend:
partitions a synthetic TPC-H join with Algorithm 3, cleans each partition on
a simulated worker, fuses the per-partition Markov weights with Eq. 6, and
resolves conflicts globally — then repeats with different worker counts to
show the runtime/accuracy trade-off the paper reports in Table 6.  The
simulated parallel runtime is ``report.runtime``; the sequential runtime,
speedup and partition sizes are in the ``report.details`` dict.

Run with::

    python examples/distributed_tpch.py [tuples]
"""

import sys

from repro import CleaningSession, MLNCleanCleaner
from repro.errors import ErrorSpec
from repro.workloads import TPCHWorkloadGenerator, recommended_config


def main(tuples: int = 3000) -> None:
    print(f"Generating a TPC-H workload with {tuples} tuples ...")
    workload = TPCHWorkloadGenerator(tuples=tuples).build()
    instance = workload.make_instance(ErrorSpec(error_rate=0.05))
    print(f"Injected {instance.injected_errors} errors\n")

    header = f"{'workers':>7}  {'parallel_s':>10}  {'sequential_s':>12}  {'speedup':>7}  {'F1':>6}"
    print(header)
    print("-" * len(header))
    for workers in (2, 4, 8):
        session = CleaningSession(
            rules=instance.rules,
            config=recommended_config("tpch"),
            cleaner=MLNCleanCleaner("distributed", workers=workers),
            table=instance.dirty,
            ground_truth=instance.ground_truth,
        )
        report = session.run()
        details = report.details
        print(
            f"{workers:>7}  {report.runtime:>10.2f}  {details['sequential_s']:>12.2f}  "
            f"{details['speedup']:>7.2f}  {report.f1:>6.3f}"
        )
        print(f"         partition sizes: {details['partitions']}")


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 3000
    main(size)
