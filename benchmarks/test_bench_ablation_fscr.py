"""Ablation: fusion score with and without the minimality factor."""

from repro.experiments import run_experiment


def test_ablation_fscr_minimality(benchmark, bench_tuples, report_experiment):
    result = report_experiment(
        benchmark,
        run_experiment,
        name="ablation_fscr",
        workloads=["car", "hai"],
        tuples=bench_tuples,
    )
    rows = {(row["dataset"], row["variant"]): row["f1"] for row in result.rows}
    # the minimality factor never hurts HAI in this reproduction
    assert rows[("hai", "weights_and_minimality")] >= rows[("hai", "weights_only (Eq.5)")] - 0.02
