"""Figure 10: FSCR precision/recall vs the threshold tau."""

from repro.experiments import run_experiment


def test_fig10_fscr_threshold(benchmark, bench_tuples, report_experiment):
    result = report_experiment(
        benchmark,
        run_experiment,
        name="fig10",
        workloads=["car", "hai"],
        config_grid={
            "car": [{"abnormal_threshold": t} for t in (0, 1, 5)],
            "hai": [{"abnormal_threshold": t} for t in (0, 10, 50)],
        },
        tuples=bench_tuples,
    )
    assert all(0.0 <= row["precision_f"] <= 1.0 for row in result.rows)
    assert all(0.0 <= row["recall_f"] <= 1.0 for row in result.rows)
