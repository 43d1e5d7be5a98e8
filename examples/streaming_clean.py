"""Streaming: clean a continuously arriving workload in micro-batches.

A :class:`repro.CleaningSession` on the "streaming" backend replays a
corrupted HAI workload as insert micro-batches through the incremental
engine — maintaining the MLN index per delta, re-running Stage I only on
the blocks each batch dirtied and Stage II only for the tuples whose fusion
inputs changed.  The engine stays alive on the cleaner after the run, so a
late batch of corrections is applied incrementally too.  Finally the
streamed result is checked against the same session re-run on the "batch"
backend: the two cleaned tables are identical.

Run with::

    python examples/streaming_clean.py [tuples] [batch_size]
"""

import sys

from repro import (
    CleaningSession,
    DeltaBatch,
    MLNCleanCleaner,
    Update,
    WorkloadStreamSource,
)
from repro.errors.injector import ErrorSpec
from repro.workloads import recommended_config


def main() -> None:
    tuples = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    batch_size = int(sys.argv[2]) if len(sys.argv) > 2 else max(1, tuples // 4)

    source = WorkloadStreamSource(
        "hai",
        tuples=tuples,
        batch_size=batch_size,
        error_spec=ErrorSpec(error_rate=0.05),
    )
    session = CleaningSession(
        rules=source.rules,
        config=recommended_config("hai"),
        cleaner=MLNCleanCleaner("streaming", batch_size=batch_size),
        table=source.dirty,
        ground_truth=source.ground_truth,
    )

    print(f"Streaming {tuples} HAI tuples in micro-batches of {batch_size}:")
    report = session.run()
    engine = session.cleaner.engine
    print(f"  batches applied: {engine.batches_applied}")
    print("  " + report.describe().replace("\n", "\n  "))
    print()

    tid = engine.dirty.tids[0]
    correction = DeltaBatch([Update(tid, {"MeasureName": "CLABSI-REVISED"})])
    print(f"Applying a late correction to tuple {tid}:")
    print("  " + engine.apply_batch(correction).describe())
    print()

    batch_session = CleaningSession(rules=session.rules, config=session.config)
    reference = batch_session.run(engine.dirty.copy())
    same = engine.cleaned.equals(reference.cleaned)
    print(f"Streamed result matches batch MLNClean: {same}")
    accuracy = engine.accuracy()
    if accuracy is not None:
        print(
            f"Cumulative repair accuracy: precision={accuracy.precision:.3f} "
            f"recall={accuracy.recall:.3f} f1={accuracy.f1:.3f}"
        )
    print(f"Tuples retained after duplicate elimination: {len(engine.cleaned)}")


if __name__ == "__main__":
    main()
