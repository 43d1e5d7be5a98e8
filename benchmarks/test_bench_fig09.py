"""Figure 9: RSC precision/recall vs the threshold tau."""

from repro.experiments import run_experiment


def test_fig09_rsc_threshold(benchmark, bench_tuples, report_experiment):
    result = report_experiment(
        benchmark,
        run_experiment,
        name="fig09",
        workloads=["car", "hai"],
        config_grid={
            "car": [{"abnormal_threshold": t} for t in (0, 1, 5)],
            "hai": [{"abnormal_threshold": t} for t in (0, 10, 50)],
        },
        tuples=bench_tuples,
    )
    for dataset, optimal, extreme in (("car", 1, 5), ("hai", 10, 50)):
        rows = {row["threshold"]: row for row in result.rows if row["dataset"] == dataset}
        # a far-too-large threshold is not better than the tuned one
        assert rows[optimal]["recall_r"] >= rows[extreme]["recall_r"] - 0.05
