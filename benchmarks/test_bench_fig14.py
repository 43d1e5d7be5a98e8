"""Figure 14: FSCR accuracy vs error percentage."""

from repro.experiments import run_experiment


def test_fig14_fscr_error_rate(benchmark, bench_tuples, report_experiment):
    result = report_experiment(
        benchmark,
        run_experiment,
        name="fig14",
        workloads=["car", "hai"],
        error_rates=[0.05, 0.15, 0.30],
        tuples=bench_tuples,
    )
    assert all(0.0 <= row["precision_f"] <= 1.0 for row in result.rows)
    assert all(0.0 <= row["recall_f"] <= 1.0 for row in result.rows)
