"""Figure 11: overall MLNClean F1 and runtime vs the threshold tau."""

from repro.experiments import run_experiment


def test_fig11_overall_threshold(benchmark, bench_tuples, report_experiment):
    result = report_experiment(
        benchmark,
        run_experiment,
        name="fig11",
        workloads=["car", "hai"],
        config_grid={
            "car": [{"abnormal_threshold": t} for t in (0, 1, 5)],
            "hai": [{"abnormal_threshold": t} for t in (0, 10, 50)],
        },
        tuples=bench_tuples,
    )
    for dataset, optimal in (("car", 1), ("hai", 10)):
        rows = {row["threshold"]: row for row in result.rows if row["dataset"] == dataset}
        best = max(row["f1"] for row in rows.values())
        # the paper-tuned threshold is at (or near) the best of the sweep
        assert rows[optimal]["f1"] >= best - 0.1
