"""Figure 8: AGP precision/recall and #dag vs the threshold tau."""

from repro.experiments import run_experiment


def test_fig08_agp_threshold(benchmark, bench_tuples, report_experiment):
    result = report_experiment(
        benchmark,
        run_experiment,
        name="fig08",
        workloads=["car", "hai"],
        config_grid={
            "car": [{"abnormal_threshold": t} for t in (0, 1, 3, 5)],
            "hai": [{"abnormal_threshold": t} for t in (0, 10, 30, 50)],
        },
        tuples=bench_tuples,
    )
    for dataset, optimal in (("car", 1), ("hai", 10)):
        rows = {row["threshold"]: row for row in result.rows if row["dataset"] == dataset}
        # tau = 0 detects nothing: #dag is 0 and recall collapses
        assert rows[0]["dag"] == 0
        # the tuned threshold performs at least as well as tau = 0
        assert rows[optimal]["recall_a"] >= rows[0]["recall_a"]
        # #dag grows with the threshold
        assert rows[max(rows)]["dag"] >= rows[optimal]["dag"]
