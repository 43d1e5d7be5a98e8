"""Smoke tests for the experiment harnesses (tiny workload sizes)."""

from repro.experiments import (
    EXPERIMENTS,
    ablation_fscr_minimality,
    ablation_partitioner,
    ablation_reliability_score,
    fig06_error_percentage,
    fig07_error_type_ratio,
    fig08_agp_threshold,
    fig11_overall_threshold,
    fig12_agp_error_rate,
    fig15_distributed,
    table05_distance_metrics,
    table06_worker_scaling,
)
from repro.experiments.harness import (
    ExperimentResult,
    default_thresholds,
    prepare_instance,
    session_for_instance,
)

SMALL = 300


def test_registry_covers_all_figures_and_tables():
    expected = {f"fig{i:02d}" for i in range(6, 16)} | {"table05", "table06"}
    assert expected <= set(EXPERIMENTS)


def test_prepare_instance_and_runners():
    instance = prepare_instance("car", tuples=SMALL, error_rate=0.05)
    mlnclean = session_for_instance(instance).run()
    holoclean = session_for_instance(instance, cleaner="holoclean").run()
    assert mlnclean.backend == "batch"
    assert holoclean.backend == "holoclean"
    assert 0.0 <= mlnclean.accuracy.f1 <= 1.0
    assert 0.0 <= holoclean.accuracy.f1 <= 1.0
    assert "precision_a" in mlnclean.component_accuracy.as_dict()


def test_experiment_result_rendering():
    result = ExperimentResult("demo", "demo experiment")
    result.add({"a": 1, "b": "x"})
    result.add({"a": 2, "c": 3.5})
    text = result.render()
    assert "demo experiment" in text
    assert result.columns() == ["a", "b", "c"]
    assert result.series("a") == [1, 2]


def test_default_thresholds():
    assert default_thresholds("car") == (0, 1, 2, 3, 4, 5)
    assert default_thresholds("hai")[-1] == 50


def test_fig06_rows_cover_grid():
    result = fig06_error_percentage(
        datasets=("car",), error_rates=(0.05, 0.10), tuples=SMALL
    )
    assert len(result.rows) == 4  # 2 rates x 2 systems
    assert {row["system"] for row in result.rows} == {"MLNClean", "HoloClean"}
    assert all("f1" in row and "runtime_s" in row for row in result.rows)


def test_fig07_rows(car_workload):
    result = fig07_error_type_ratio(
        datasets=("car",), ratios=(0.0, 1.0), tuples=SMALL, include_holoclean=False
    )
    assert len(result.rows) == 2
    assert {row["replacement_ratio"] for row in result.rows} == {0.0, 1.0}


def test_threshold_figures_share_columns():
    fig08 = fig08_agp_threshold(datasets=("car",), thresholds={"car": (0, 1)}, tuples=SMALL)
    assert {row["threshold"] for row in fig08.rows} == {0, 1}
    assert all("precision_a" in row and "dag" in row for row in fig08.rows)
    fig11 = fig11_overall_threshold(
        datasets=("car",), thresholds={"car": (1,)}, tuples=SMALL
    )
    assert all("f1" in row and "runtime_s" in row for row in fig11.rows)


def test_error_rate_figures():
    result = fig12_agp_error_rate(datasets=("car",), error_rates=(0.05, 0.2), tuples=SMALL)
    assert len(result.rows) == 2
    assert all("recall_a" in row for row in result.rows)


def test_fig15_and_table06():
    fig15 = fig15_distributed(
        datasets=("tpch",), error_rates=(0.05,), workers=2, tuples=SMALL
    )
    assert len(fig15.rows) == 1
    assert fig15.rows[0]["workers"] == 2
    table06 = table06_worker_scaling(
        dataset="tpch", worker_counts=(2, 4), tuples=SMALL
    )
    assert [row["workers"] for row in table06.rows] == [2, 4]
    assert all(row["runtime_s"] > 0 for row in table06.rows)


def test_table05_metrics():
    result = table05_distance_metrics(datasets=("car",), tuples=SMALL)
    # the ablation now includes the Damerau variant, which shares the
    # Levenshtein fast-path preprocessing (like-with-like comparison)
    assert {row["metric"] for row in result.rows} == {
        "levenshtein",
        "damerau",
        "cosine",
    }


def test_ablations_run():
    rscore = ablation_reliability_score(datasets=("car",), tuples=SMALL)
    assert {row["variant"] for row in rscore.rows} == {
        "full",
        "weight_only",
        "distance_only",
    }
    fscr = ablation_fscr_minimality(datasets=("car",), tuples=SMALL)
    assert len(fscr.rows) == 2
    partition = ablation_partitioner(dataset="tpch", workers=2, tuples=SMALL)
    assert {row["partitioner"] for row in partition.rows} == {
        "algorithm3",
        "round_robin",
    }
