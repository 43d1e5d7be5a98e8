"""Table 6: distributed MLNClean runtime vs the number of workers."""

from repro.experiments import run_experiment


def test_table06_worker_scaling(benchmark, bench_tuples, report_experiment):
    result = report_experiment(
        benchmark,
        run_experiment,
        name="table06",
        workloads=["tpch"],
        cleaners=[
            {"cleaner": "mlnclean", "options": {"backend": "distributed", "workers": n}}
            for n in (2, 4, 8)
        ],
        tuples=bench_tuples,
    )
    assert [row["workers"] for row in result.rows] == [2, 4, 8]
    assert all(row["runtime_s"] > 0 for row in result.rows)
    assert all(row["sequential_s"] >= row["runtime_s"] for row in result.rows)
