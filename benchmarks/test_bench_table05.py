"""Table 5: MLNClean F1 under the Levenshtein vs cosine distance."""

from repro.experiments import run_experiment


def test_table05_distance_metrics(benchmark, bench_tuples, report_experiment):
    result = report_experiment(
        benchmark,
        run_experiment,
        name="table05",
        workloads=["car", "hai"],
        tuples=bench_tuples,
    )
    by_key = {(row["dataset"], row["metric"]): row["f1"] for row in result.rows}
    # the paper finds the Levenshtein distance at least as good as cosine
    assert by_key[("hai", "levenshtein")] >= by_key[("hai", "cosine")] - 0.05
