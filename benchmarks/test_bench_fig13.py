"""Figure 13: RSC accuracy vs error percentage."""

from repro.experiments import run_experiment


def test_fig13_rsc_error_rate(benchmark, bench_tuples, report_experiment):
    result = report_experiment(
        benchmark,
        run_experiment,
        name="fig13",
        workloads=["car", "hai"],
        error_rates=[0.05, 0.15, 0.30],
        tuples=bench_tuples,
    )
    assert all(0.0 <= row["precision_r"] <= 1.0 for row in result.rows)
    for dataset in ("car", "hai"):
        series = [row["recall_r"] for row in result.rows if row["dataset"] == dataset]
        assert series[0] >= series[-1] - 0.1
