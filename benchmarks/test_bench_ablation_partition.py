"""Ablation: Algorithm-3 partitioning vs round-robin partitioning."""

from repro.experiments import run_experiment


def test_ablation_partitioner(benchmark, bench_tuples, report_experiment):
    result = report_experiment(
        benchmark,
        run_experiment,
        name="ablation_partition",
        workloads=["tpch"],
        tuples=bench_tuples,
    )
    assert {row["partitioner"] for row in result.rows} == {"algorithm3", "round_robin"}
    assert all(row["runtime_s"] > 0 for row in result.rows)
