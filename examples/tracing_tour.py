"""A tour of the observability layer: spans, trees, metrics, exports.

Cleans one workload three ways with tracing enabled and shows everything
:mod:`repro.obs` records along the way:

* the human span tree of a batch run (session → backend → pipeline →
  stages), straight from ``session.last_trace``;
* the proof that tracing is output-invariant — the masked report
  signature is byte-identical with tracing on or off;
* a Chrome ``trace_event`` export ready for ``chrome://tracing`` or
  https://ui.perfetto.dev;
* the process-default metrics registry rendered as Prometheus text (the
  same body the service serves on ``GET /metrics``).

Run with::

    python examples/tracing_tour.py [tuples] [trace.json]
"""

import json
import sys
from dataclasses import replace

from repro import CleaningSession
from repro.errors import ErrorSpec
from repro.obs import get_registry, name_tree, render_tree, to_chrome
from repro.service import report_signature
from repro.workloads import get_workload_generator, recommended_config


def run(instance, trace: bool):
    config = replace(recommended_config("hospital-sample"), trace=trace)
    session = CleaningSession(
        rules=instance.rules,
        config=config,
        table=instance.dirty.copy(),
        ground_truth=instance.ground_truth,
    )
    return session, session.run()


def main(tuples: int = 48, trace_out: str = "") -> None:
    workload = get_workload_generator("hospital-sample", tuples=tuples).build()
    instance = workload.make_instance(ErrorSpec(error_rate=0.1, seed=42))
    print(f"hospital-sample workload: {tuples} tuples\n")

    # 1. a traced run: one connected span tree per session.run
    traced_session, traced_report = run(instance, trace=True)
    spans = traced_session.last_trace.finished()
    print(f"span tree of the batch run ({len(spans)} spans):")
    print(render_tree(spans))
    print(f"connected trees: {len(name_tree(spans))}")

    # 2. tracing changes no output byte: same masked signature as untraced
    _, untraced_report = run(instance, trace=False)
    identical = report_signature(traced_report) == report_signature(untraced_report)
    print(f"\nmasked report signature identical with tracing off: {identical}")

    # 3. the Chrome trace_event export (open in chrome://tracing / Perfetto)
    chrome = to_chrome(spans)
    print(f"chrome trace: {len(chrome['traceEvents'])} complete events")
    if trace_out:
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(chrome, handle)
        print(f"trace written to {trace_out}")

    # 4. the metrics the run left in the process-default registry
    text = get_registry().render_prometheus()
    stage_lines = [
        line for line in text.splitlines()
        if line.startswith("repro_stage_seconds_total")
    ]
    print("\nper-stage wall-clock counters (Prometheus text):")
    for line in stage_lines:
        print(f"  {line}")
    hit_rate = [
        line for line in text.splitlines()
        if line.startswith("repro_distance_cache_hit_rate")
    ]
    print(f"distance cache hit rate: {hit_rate[0].split()[-1]}")


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 48
    out = sys.argv[2] if len(sys.argv) > 2 else ""
    main(size, out)
