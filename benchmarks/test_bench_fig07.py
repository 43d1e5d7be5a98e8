"""Figure 7: F1 vs the error type ratio Rret."""

from repro.experiments import run_experiment


def test_fig07_error_type_ratio(benchmark, bench_tuples, report_experiment):
    result = report_experiment(
        benchmark,
        run_experiment,
        name="fig07",
        workloads=["car", "hai"],
        replacement_ratios=[0.0, 0.5, 1.0],
        tuples=bench_tuples,
    )
    # the paper's key qualitative claim: on sparse CAR with typo-only errors
    # (Rret = 0) MLNClean beats HoloClean
    car_typos = {
        row["system"]: row["f1"]
        for row in result.rows
        if row["dataset"] == "car" and row["replacement_ratio"] == 0.0
    }
    assert car_typos["MLNClean"] > car_typos["HoloClean"]
