"""Command-line entry point for the declarative experiment API.

Usage (with ``PYTHONPATH=src`` or the package installed)::

    python -m repro.experiments list
    python -m repro.experiments run fig06 --tuples 300 --out fig06.json
    python -m repro.experiments render fig06.json
    python -m repro.experiments check-metrics fig06.json schema.json [--write]

``run`` executes a checked-in spec (by name) or a spec JSON file (by path)
and writes the :class:`~repro.experiments.spec.RunArtifact`;
``render`` re-renders a previously saved artifact — no cleaning is re-run;
``check-metrics`` compares the artifact's metric keys against a checked-in
schema file (a sorted JSON list) and exits non-zero on drift, which is how
CI's ``experiments-smoke`` job gates the metric surface.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cli import common_parent, configure_logging
from repro.experiments import EXPERIMENTS, available_specs
from repro.experiments.harness import ExperimentResult
from repro.experiments.spec import ExperimentRunner, RunArtifact, load_spec


def _render(artifact: RunArtifact) -> str:
    """Render an artifact: the experiment named like its spec, else generic rows.

    Shared sweeps (``threshold_sweep``, ``error_rate_sweep``) feed several
    figures and so print all their columns.
    """
    if artifact.spec.name in EXPERIMENTS:
        _spec_name, render = EXPERIMENTS[artifact.spec.name]
        return render(artifact).render()
    result = ExperimentResult(
        experiment=artifact.spec.name, description=artifact.spec.description
    )
    for cell in artifact.cells:
        row = {
            "dataset": cell.coords["workload"],
            "error_rate": cell.coords["error_rate"],
            "config": cell.coords["config"]["label"]
            or ",".join(
                f"{k}={v}" for k, v in cell.coords["config"]["overrides"].items()
            )
            or "default",
            **cell.metrics,
        }
        result.add(row)
    return result.render()


def cmd_list(_args) -> int:
    for name in available_specs():
        spec = load_spec(name)
        print(f"{name:20s} {spec.description}")
    return 0


def cmd_run(args) -> int:
    given = {"tuples": args.tuples, "seed": args.seed}
    overrides = {key: value for key, value in given.items() if value is not None}
    spec = load_spec(args.spec).override(**overrides)
    runner = ExperimentRunner(spec)
    if args.trace:
        from repro.obs import Tracer, to_chrome, use_tracer

        tracer = Tracer(max_spans=1_000_000)
        with use_tracer(tracer):
            artifact = runner.run()
        trace_path = Path(args.trace)
        trace_path.write_text(
            json.dumps(to_chrome(tracer.finished())), encoding="utf-8"
        )
        print(
            f"trace written to {trace_path} "
            f"({len(tracer.finished())} spans; open in chrome://tracing)"
        )
    else:
        artifact = runner.run()
    if args.out:
        path = artifact.save(args.out)
        print(f"artifact written to {path} ({len(artifact.cells)} cells)")
    if args.render or not args.out:
        print(_render(artifact))
    return 0


def cmd_render(args) -> int:
    print(_render(RunArtifact.load(args.artifact)))
    return 0


def cmd_check_metrics(args) -> int:
    artifact = RunArtifact.load(args.artifact)
    measured = artifact.metric_keys()
    schema_path = Path(args.schema)
    if args.write:
        schema_path.parent.mkdir(parents=True, exist_ok=True)
        schema_path.write_text(json.dumps(measured, indent=1) + "\n")
        print(f"schema written to {schema_path}")
        return 0
    if not schema_path.is_file():
        print(f"no schema at {schema_path}; run with --write first", file=sys.stderr)
        return 2
    expected = json.loads(schema_path.read_text())
    if measured != expected:
        missing = sorted(set(expected) - set(measured))
        extra = sorted(set(measured) - set(expected))
        print("FAIL: artifact metric keys drifted from the schema", file=sys.stderr)
        if missing:
            print(f"  missing: {missing}", file=sys.stderr)
        if extra:
            print(f"  unexpected: {extra}", file=sys.stderr)
        return 1
    print(f"ok: {len(measured)} metric keys match {schema_path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="run, render and gate declarative cleaning experiments",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # the operational flags (--log-level, --seed) are shared with
    # `python -m repro.service` through repro.cli
    commands.add_parser(
        "list", parents=[common_parent()], help="list the checked-in experiment specs"
    )

    run = commands.add_parser(
        "run", parents=[common_parent()], help="run a spec into a RunArtifact"
    )
    run.add_argument("spec", help="checked-in spec name or spec JSON path")
    run.add_argument("--tuples", type=int, default=None, help="override workload size")
    run.add_argument("--out", default=None, help="write the artifact JSON here")
    run.add_argument(
        "--render", action="store_true", help="also print the rendered table"
    )
    run.add_argument(
        "--trace",
        default=None,
        metavar="OUT_JSON",
        help="trace every cell and write one Chrome trace_event JSON here",
    )

    render = commands.add_parser(
        "render", parents=[common_parent()], help="re-render a saved artifact"
    )
    render.add_argument("artifact", help="RunArtifact JSON path")

    check = commands.add_parser(
        "check-metrics",
        parents=[common_parent()],
        help="gate an artifact's metric keys against a schema",
    )
    check.add_argument("artifact", help="RunArtifact JSON path")
    check.add_argument("schema", help="schema JSON path (sorted key list)")
    check.add_argument(
        "--write", action="store_true", help="(re)write the schema from the artifact"
    )

    args = parser.parse_args(argv)
    configure_logging(args.log_level)
    handler = {
        "list": cmd_list,
        "run": cmd_run,
        "render": cmd_render,
        "check-metrics": cmd_check_metrics,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
