"""One workload, four cleaning algorithms, one unified report.

The point of the cleaner protocol: MLNClean and every comparison baseline
answer the *same* :class:`~repro.session.CleaningRequest` with the
*same* :class:`~repro.core.report.CleaningReport` — selecting the algorithm
is the session's one ``cleaner=`` argument, exactly like selecting MLNClean's
execution backend (``cleaner=MLNCleanCleaner("distributed")``).

The second half runs the same comparison declaratively: an inline
:class:`~repro.experiments.ExperimentSpec` through the
:class:`~repro.experiments.ExperimentRunner`, whose
:class:`~repro.experiments.RunArtifact` survives a JSON round-trip with the
numbers (and even the cleaned tables) intact.

Run with::

    python examples/cleaners_tour.py [tuples]
"""

import sys

from repro import CleaningSession, available_cleaners
from repro.errors import ErrorSpec
from repro.experiments import (
    CleanerSpec,
    ExperimentRunner,
    ExperimentSpec,
    RunArtifact,
)
from repro.workloads import get_workload_generator, recommended_config

CLEANERS = ("mlnclean", "holoclean", "minimal-repair", "factor-graph")


def main(tuples: int = 60) -> None:
    workload = get_workload_generator("hospital-sample", tuples=tuples).build()
    instance = workload.make_instance(ErrorSpec(error_rate=0.08, seed=42))
    print(f"registered cleaners: {', '.join(available_cleaners())}")
    print(
        f"hospital-sample workload: {tuples} tuples, "
        f"{instance.injected_errors} injected errors\n"
    )

    header = f"{'cleaner':>15}  {'tuples_out':>10}  {'f1':>6}  {'runtime_s':>9}"
    print(header)
    print("-" * len(header))
    for name in CLEANERS:
        session = CleaningSession(
            rules=instance.rules,
            config=recommended_config("hospital-sample"),
            cleaner=name,
            table=instance.dirty.copy(),
            ground_truth=instance.ground_truth,
        )
        report = session.run()
        print(
            f"{name:>15}  {len(report.cleaned):>10}  "
            f"{report.f1:>6.3f}  {report.runtime:>9.4f}"
        )

    # the same comparison as data: a spec, a runner, a serializable artifact
    spec = ExperimentSpec(
        name="cleaners-tour",
        description="all built-in cleaners on hospital-sample",
        workloads=["hospital-sample"],
        cleaners=[CleanerSpec(cleaner=name) for name in CLEANERS],
        error_rates=[0.08],
        tuples=tuples,
    )
    artifact = ExperimentRunner(spec).run()
    reloaded = RunArtifact.from_json(artifact.to_json())
    print("\ndeclarative re-run (spec -> runner -> artifact -> JSON -> artifact):")
    for cell in reloaded.cells:
        print(
            f"{cell.metrics['system']:>15}  f1={cell.metrics['f1']:<6}  "
            f"cleaned tuples={len(cell.report.cleaned)}"
        )
    print(
        "artifact JSON round-trip bit-identical: "
        f"{reloaded.to_json() == artifact.to_json()}"
    )


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 60
    main(size)
