"""Experiment harnesses: declarative specs, one renderer per figure/table.

Every experiment is an :class:`~repro.experiments.spec.ExperimentSpec` — a
pure-data grid of cleaner × workload × error model × configuration — checked
in under ``specs/`` and executed by the
:class:`~repro.experiments.spec.ExperimentRunner` into a JSON-serializable
:class:`~repro.experiments.spec.RunArtifact`.  :data:`EXPERIMENTS` maps each
experiment id to its spec and the renderer that projects the artifact's
cells onto the figure's rows; :func:`run_experiment` runs one::

    run_experiment("fig06", workloads=["car"], tuples=300).render()

Its keyword overrides use the spec file's own field names, so a spec file,
a Python call and ``python -m repro.experiments run <spec>`` all decode
through :meth:`~repro.experiments.spec.ExperimentSpec.from_json_dict`.

Ids follow the paper's numbering::

    fig06  F1 and runtime vs error percentage (MLNClean vs HoloClean)
    fig07  F1 vs error type ratio Rret
    fig08  AGP precision/recall/#dag vs threshold τ    (threshold_sweep)
    fig09  RSC precision/recall vs τ                    (threshold_sweep)
    fig10  FSCR precision/recall vs τ                   (threshold_sweep)
    fig11  MLNClean F1 and runtime vs τ                 (threshold_sweep)
    fig12  AGP accuracy vs error percentage             (error_rate_sweep)
    fig13  RSC accuracy vs error percentage             (error_rate_sweep)
    fig14  FSCR accuracy vs error percentage            (error_rate_sweep)
    fig15  distributed MLNClean vs error percentage
    table05  F1 under different distance metrics
    table06  distributed runtime vs number of workers

Figures 8-11 share one instrumented τ sweep (the per-workload τ grids live
in ``specs/threshold_sweep.json``) and Figures 12-14 one error-rate sweep;
each of those figures is a :class:`~repro.experiments.harness.Projection` of
the sweep's columns.  Post-paper capability studies::

    ablation_rscore     reliability score vs its weight-only / distance-only forms
    ablation_fscr       fusion score with / without the minimality factor
    ablation_partition  Algorithm-3 vs round-robin partitioning
    streaming_replay    batch vs streaming-backend equivalence
    service_replay      batch vs the repro.service queue/shard path

:func:`~repro.experiments.streaming.streaming_incremental` (a per-batch
time series) and :func:`~repro.experiments.detect_ablation.detect_scoping`
(an out-of-band detected-cell comparison) stay imperative: a grid cell
cannot express either.
"""

from repro.experiments.harness import (
    ExperimentResult,
    Projection,
    prepare_instance,
    session_for_instance,
)
from repro.experiments.spec import (
    CellResult,
    CleanerSpec,
    ConfigCell,
    ExperimentRunner,
    ExperimentSpec,
    RunArtifact,
    available_specs,
    load_spec,
)
from repro.experiments.comparison import render_fig06, render_fig07
from repro.experiments.distributed import render_fig15, render_table06
from repro.experiments.distance import render_table05
from repro.experiments.ablation import (
    render_ablation_fscr,
    render_ablation_partition,
    render_ablation_rscore,
)
from repro.experiments.streaming import (
    render_streaming_replay,
    streaming_incremental,
)
from repro.experiments.service_replay import render_service_replay
from repro.registry import unknown_name

#: experiment id -> (checked-in spec name, renderer of that spec's artifact)
EXPERIMENTS = {
    "fig06": ("fig06", render_fig06),
    "fig07": ("fig07", render_fig07),
    "fig08": ("threshold_sweep", Projection(
        "fig08", "AGP precision/recall and #dag vs threshold", "threshold",
        ("precision_a", "recall_a", "dag"),
    )),
    "fig09": ("threshold_sweep", Projection(
        "fig09", "RSC precision/recall vs threshold", "threshold",
        ("precision_r", "recall_r"),
    )),
    "fig10": ("threshold_sweep", Projection(
        "fig10", "FSCR precision/recall vs threshold", "threshold",
        ("precision_f", "recall_f"),
    )),
    "fig11": ("threshold_sweep", Projection(
        "fig11", "MLNClean F1 and runtime vs threshold", "threshold",
        ("f1", "runtime_s"),
    )),
    "fig12": ("error_rate_sweep", Projection(
        "fig12", "AGP precision/recall and #dag vs error percentage", "error_rate",
        ("precision_a", "recall_a", "dag"),
    )),
    "fig13": ("error_rate_sweep", Projection(
        "fig13", "RSC precision/recall vs error percentage", "error_rate",
        ("precision_r", "recall_r"),
    )),
    "fig14": ("error_rate_sweep", Projection(
        "fig14", "FSCR precision/recall vs error percentage", "error_rate",
        ("precision_f", "recall_f"),
    )),
    "fig15": ("fig15", render_fig15),
    "table05": ("table05", render_table05),
    "table06": ("table06", render_table06),
    "ablation_rscore": ("ablation_rscore", render_ablation_rscore),
    "ablation_fscr": ("ablation_fscr", render_ablation_fscr),
    "ablation_partition": ("ablation_partition", render_ablation_partition),
    "streaming_replay": ("streaming_replay", render_streaming_replay),
    "service_replay": ("service_replay", render_service_replay),
}


def run_experiment(name: str, **overrides) -> ExperimentResult:
    """Run experiment ``name`` from its checked-in spec and render its rows.

    ``overrides`` replace spec fields by their JSON names (``workloads``,
    ``error_rates``, ``replacement_ratios``, ``config_grid``, ``cleaners``,
    ``tuples``, ``seed``, ...), decoded like a spec file: a
    ``config_grid`` entry may be a bare override mapping such as
    ``{"abnormal_threshold": 3}`` and a cleaner a bare registered name.
    An unknown key or an empty axis raises :class:`ValueError`.
    """
    if name not in EXPERIMENTS:
        raise KeyError(unknown_name("experiment", name, list(EXPERIMENTS)))
    spec_name, render = EXPERIMENTS[name]
    spec = load_spec(spec_name).override(**overrides)
    return render(ExperimentRunner(spec).run())


__all__ = [
    "EXPERIMENTS",
    "run_experiment",
    "ExperimentResult",
    "Projection",
    "ExperimentSpec",
    "ExperimentRunner",
    "RunArtifact",
    "CellResult",
    "CleanerSpec",
    "ConfigCell",
    "load_spec",
    "available_specs",
    "prepare_instance",
    "session_for_instance",
    "render_fig06",
    "render_fig07",
    "streaming_incremental",
    "render_service_replay",
]
