"""One workload, three execution backends, one unified report.

The point of the session API: the *same* rules/config/table drive the
stand-alone batch pipeline, the partitioned (simulated-cluster) driver, and
the incremental streaming engine — only the session's ``cleaner=``
argument changes, and every run comes back as the same
:class:`~repro.core.report.CleaningReport` shape.

Run with::

    python examples/backends_tour.py [tuples]
"""

import sys

from repro import CleaningSession, MLNCleanCleaner
from repro.errors import ErrorSpec
from repro.workloads import get_workload_generator, recommended_config

BACKENDS = (
    ("batch", {}),
    ("distributed", {"workers": 2}),
    ("streaming", {"batch_size": 10}),
)


def main(tuples: int = 48) -> None:
    workload = get_workload_generator("hospital-sample", tuples=tuples).build()
    instance = workload.make_instance(ErrorSpec(error_rate=0.05, seed=42))
    print(
        f"hospital-sample workload: {tuples} tuples, "
        f"{instance.injected_errors} injected errors\n"
    )

    header = f"{'backend':>12}  {'tuples_out':>10}  {'f1':>6}  {'runtime_s':>9}"
    print(header)
    print("-" * len(header))
    cleaned = {}
    for backend, options in BACKENDS:
        session = CleaningSession(
            rules=instance.rules,
            config=recommended_config("hospital-sample"),
            cleaner=MLNCleanCleaner(backend, **options),
            table=instance.dirty.copy(),
            ground_truth=instance.ground_truth,
        )
        report = session.run()
        cleaned[backend] = report.cleaned
        print(
            f"{backend:>12}  {len(report.cleaned):>10}  "
            f"{report.f1:>6.3f}  {report.runtime:>9.4f}"
        )

    print()
    print(f"batch == streaming: {cleaned['batch'].equals(cleaned['streaming'])}")
    print(f"batch == distributed: {cleaned['batch'].equals(cleaned['distributed'])}")


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 48
    main(size)
