"""Figure 12: AGP accuracy vs error percentage."""

from repro.experiments import run_experiment


def test_fig12_agp_error_rate(benchmark, bench_tuples, report_experiment):
    result = report_experiment(
        benchmark,
        run_experiment,
        name="fig12",
        workloads=["car", "hai"],
        error_rates=[0.05, 0.15, 0.30],
        tuples=bench_tuples,
    )
    for dataset in ("car", "hai"):
        series = [row["recall_a"] for row in result.rows if row["dataset"] == dataset]
        # accuracy does not improve with more errors (paper: it declines)
        assert series[0] >= series[-1] - 0.05
