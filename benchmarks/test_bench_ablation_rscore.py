"""Ablation: reliability score vs its weight-only / distance-only variants."""

from repro.experiments import run_experiment


def test_ablation_reliability_score(benchmark, bench_tuples, report_experiment):
    result = report_experiment(
        benchmark,
        run_experiment,
        name="ablation_rscore",
        workloads=["car", "hai"],
        tuples=bench_tuples,
    )
    full = {row["dataset"]: row["precision_r"] for row in result.rows if row["variant"] == "full"}
    assert all(0.0 <= value <= 1.0 for value in full.values())
