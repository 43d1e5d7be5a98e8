"""Figure 6: F1 and runtime vs error percentage, MLNClean vs HoloClean."""

from repro.experiments import run_experiment


def test_fig06_error_percentage(benchmark, bench_tuples, report_experiment):
    result = report_experiment(
        benchmark,
        run_experiment,
        name="fig06",
        workloads=["car", "hai"],
        error_rates=[0.05, 0.15, 0.30],
        tuples=bench_tuples,
    )
    mlnclean_rows = [row for row in result.rows if row["system"] == "MLNClean"]
    assert all(0.0 <= row["f1"] <= 1.0 for row in result.rows)
    # accuracy does not improve as the data gets dirtier (paper: slight decline)
    for dataset in ("car", "hai"):
        series = [row["f1"] for row in mlnclean_rows if row["dataset"] == dataset]
        assert series[0] >= series[-1] - 0.05
