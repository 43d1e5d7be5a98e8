"""Experiment harnesses: declarative specs, one renderer per figure/table.

Every experiment is an :class:`~repro.experiments.spec.ExperimentSpec` — a
pure-data grid of cleaner × workload × error model × configuration — checked
in under ``specs/`` and executed by the
:class:`~repro.experiments.spec.ExperimentRunner` into a JSON-serializable
:class:`~repro.experiments.spec.RunArtifact`.  The per-figure functions in
this package load the corresponding spec, apply any keyword overrides, run
it, and render the artifact's rows; the benchmarks under ``benchmarks/``
call them with scaled-down workload sizes, and
``python -m repro.experiments run <spec>`` does the same from the command
line.

Registry keys follow the paper's numbering::

    fig06  F1 and runtime vs error percentage (MLNClean vs HoloClean)
    fig07  F1 vs error type ratio Rret
    fig08  AGP precision/recall/#dag vs threshold τ
    fig09  RSC precision/recall vs τ
    fig10  FSCR precision/recall vs τ
    fig11  MLNClean F1 and runtime vs τ
    fig12  AGP accuracy vs error percentage
    fig13  RSC accuracy vs error percentage
    fig14  FSCR accuracy vs error percentage
    fig15  distributed MLNClean vs error percentage
    table05  F1 under different distance metrics
    table06  distributed runtime vs number of workers

plus post-paper capability studies::

    streaming          incremental micro-batch cleaning vs naive full re-clean
    streaming_replay   batch vs streaming-backend equivalence (declarative)
    service_replay     batch vs the repro.service queue/shard path (declarative)
"""

from repro.experiments.harness import (
    ExperimentResult,
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
from repro.experiments.comparison import (
    fig06_error_percentage,
    fig07_error_type_ratio,
    render_fig06,
    render_fig07,
)
from repro.experiments.threshold import (
    fig08_agp_threshold,
    fig09_rsc_threshold,
    fig10_fscr_threshold,
    fig11_overall_threshold,
)
from repro.experiments.error_rate import (
    fig12_agp_error_rate,
    fig13_rsc_error_rate,
    fig14_fscr_error_rate,
)
from repro.experiments.distributed import (
    fig15_distributed,
    render_fig15,
    render_table06,
    table06_worker_scaling,
)
from repro.experiments.distance import render_table05, table05_distance_metrics
from repro.experiments.ablation import (
    ablation_fscr_minimality,
    ablation_partitioner,
    ablation_reliability_score,
    render_ablation_fscr,
    render_ablation_partition,
    render_ablation_rscore,
)
from repro.experiments.streaming import (
    render_streaming_replay,
    streaming_incremental,
    streaming_replay,
)
from repro.experiments.service_replay import (
    render_service_replay,
    service_replay,
)

#: experiment id -> harness callable (all accept ``tuples`` and ``seed``)
EXPERIMENTS = {
    "fig06": fig06_error_percentage,
    "fig07": fig07_error_type_ratio,
    "fig08": fig08_agp_threshold,
    "fig09": fig09_rsc_threshold,
    "fig10": fig10_fscr_threshold,
    "fig11": fig11_overall_threshold,
    "fig12": fig12_agp_error_rate,
    "fig13": fig13_rsc_error_rate,
    "fig14": fig14_fscr_error_rate,
    "fig15": fig15_distributed,
    "table05": table05_distance_metrics,
    "table06": table06_worker_scaling,
    "ablation_rscore": ablation_reliability_score,
    "ablation_fscr": ablation_fscr_minimality,
    "ablation_partition": ablation_partitioner,
    "streaming": streaming_incremental,
    "streaming_replay": streaming_replay,
    "service_replay": service_replay,
}

#: spec name -> renderer for artifacts produced from that (shaped) spec;
#: sweeps feeding several figures (threshold_sweep, error_rate_sweep) have
#: no single figure and fall back to the CLI's generic rendering
RENDERERS = {
    "fig06": render_fig06,
    "fig07": render_fig07,
    "fig15": render_fig15,
    "table05": render_table05,
    "table06": render_table06,
    "ablation_fscr": render_ablation_fscr,
    "ablation_rscore": render_ablation_rscore,
    "ablation_partition": render_ablation_partition,
    "streaming_replay": render_streaming_replay,
    "service_replay": render_service_replay,
}

__all__ = [
    "EXPERIMENTS",
    "RENDERERS",
    "ExperimentResult",
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
    "fig06_error_percentage",
    "fig07_error_type_ratio",
    "render_fig06",
    "render_fig07",
    "fig08_agp_threshold",
    "fig09_rsc_threshold",
    "fig10_fscr_threshold",
    "fig11_overall_threshold",
    "fig12_agp_error_rate",
    "fig13_rsc_error_rate",
    "fig14_fscr_error_rate",
    "fig15_distributed",
    "table05_distance_metrics",
    "table06_worker_scaling",
    "ablation_reliability_score",
    "ablation_fscr_minimality",
    "ablation_partitioner",
    "streaming_incremental",
    "streaming_replay",
    "service_replay",
    "render_service_replay",
]
