"""The error-detection front end, from registry to scoped cleaning.

Four stops:

1. the detector registry and a few stacks scored against the injected-error
   ledger of a seeded hospital-sample instance,
2. HoloClean-format denial-constraint ingestion — the packaged
   ``hospital_sample.dc`` file drives a pinned violation detector,
3. the *exact-or-prune* contract: an ``all-cells`` stack is byte-identical
   to running with no detection at all,
4. dirty-cell-scoped cleaning: a violation stack prunes Stage I/II, cutting
   raw distance evaluations while repairing the detected cells exactly like
   the full pipeline.

Run with::

    python examples/detectors_tour.py [tuples]

(The same front end is scriptable as ``python -m repro.detect``.)
"""

import sys

from repro.detect import available_detectors, data_path, load_dc_file, run_detection
from repro.experiments.harness import prepare_instance
from repro.core.report import report_signature
from repro.session import CleaningSession
from repro.workloads.registry import recommended_config

STACKS = [
    ["null", "outlier"],
    ["violation"],
    [{"name": "violation", "options": {"dc_file": "hospital_sample.dc"}}],
    ["perfect"],
]


def run_session(instance, detectors):
    session = CleaningSession(
        rules=instance.rules,
        config=recommended_config("hospital-sample"),
        table=instance.dirty,
        ground_truth=instance.ground_truth,
        detectors=detectors,
    )
    return session.run()


def main(tuples: int = 120) -> None:
    print(f"registered detectors: {', '.join(available_detectors())}")
    instance = prepare_instance(
        "hospital-sample", tuples=tuples, error_rate=0.1, seed=7, error_seed=42
    )
    truth = instance.ground_truth.dirty_cells
    print(
        f"hospital-sample workload: {tuples} tuples, "
        f"{len(truth)} truly dirty cells\n"
    )

    header = f"{'stack':>42}  {'cells':>5}  {'prec':>6}  {'recall':>6}  {'f1':>6}"
    print(header)
    print("-" * len(header))
    for stack in STACKS:
        detected = run_detection(
            instance.dirty, instance.rules, stack, ground_truth=instance.ground_truth
        )
        acc = detected.accuracy(truth, instance.dirty)
        label = "+".join(
            spec if isinstance(spec, str) else f"{spec['name']}(dc_file)"
            for spec in stack
        )
        print(
            f"{label:>42}  {detected.count:>5}  {acc['precision']:>6.3f}  "
            f"{acc['recall']:>6.3f}  {acc['f1']:>6.3f}"
        )

    dc_path = data_path("hospital_sample.dc")
    rules = load_dc_file(dc_path)
    print(f"\npackaged DC file {dc_path.name}: {len(rules)} denial constraints")
    for rule in rules:
        print(f"  {rule.describe()}")

    plain = run_session(instance, None)
    everything = run_session(instance, ["all-cells"])
    print(
        "\nall-cells detection byte-identical to no detection: "
        f"{report_signature(plain) == report_signature(everything)}"
    )

    scoped = run_session(instance, ["violation"])
    detected = scoped.details["detection"]
    full_raw = plain.details["distance"]["raw_evaluations"]
    scoped_raw = scoped.details["distance"]["raw_evaluations"]
    print(
        f"violation-scoped run: {detected['count']} detected cells, "
        f"{len(detected['scoped_blocks'])} blocks in scope"
    )
    print(
        f"raw distance evaluations: full={full_raw} scoped={scoped_raw} "
        f"(x{full_raw / max(1, scoped_raw):.1f} fewer)"
    )
    print(f"scoped f1={scoped.f1:.3f} vs full f1={plain.f1:.3f}")


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 120
    main(size)
