"""Figure 15: distributed MLNClean F1 and runtime vs error percentage."""

from repro.experiments import run_experiment


def test_fig15_distributed(benchmark, bench_tuples, report_experiment):
    result = report_experiment(
        benchmark,
        run_experiment,
        name="fig15",
        workloads=["hai", "tpch"],
        error_rates=[0.05, 0.15, 0.30],
        tuples=bench_tuples,
    )
    for dataset in ("hai", "tpch"):
        runtimes = [row["runtime_s"] for row in result.rows if row["dataset"] == dataset]
        # runtime grows with the error percentage (paper: same trend)
        assert runtimes[-1] >= runtimes[0] * 0.8
    assert all(row["speedup"] >= 1.0 for row in result.rows)
