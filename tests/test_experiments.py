"""Smoke tests for the experiment harnesses (tiny workload sizes)."""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.harness import (
    ExperimentResult,
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


def test_importing_experiments_does_not_load_the_service():
    """Only a spec naming the ``service`` cleaner imports ``repro.service``."""
    script = (
        "import sys, repro.experiments\n"
        "loaded = [m for m in sys.modules if m.startswith('repro.service')]\n"
        "assert not loaded, loaded\n"
    )
    source_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (source_root, env.get("PYTHONPATH")) if path
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


def test_experiment_result_rendering():
    result = ExperimentResult("demo", "demo experiment")
    result.add({"a": 1, "b": "x"})
    result.add({"a": 2, "c": 3.5})
    text = result.render()
    assert "demo experiment" in text
    assert result.columns() == ["a", "b", "c"]
    assert result.series("a") == [1, 2]


def test_fig06_rows_cover_grid():
    result = run_experiment(
        "fig06", workloads=["car"], error_rates=[0.05, 0.10], tuples=SMALL
    )
    assert len(result.rows) == 4  # 2 rates x 2 systems
    assert {row["system"] for row in result.rows} == {"MLNClean", "HoloClean"}
    assert all("f1" in row and "runtime_s" in row for row in result.rows)


def test_fig07_rows(car_workload):
    result = run_experiment(
        "fig07",
        workloads=["car"],
        replacement_ratios=[0.0, 1.0],
        cleaners=["mlnclean"],
        tuples=SMALL,
    )
    assert len(result.rows) == 2
    assert {row["replacement_ratio"] for row in result.rows} == {0.0, 1.0}


def test_threshold_figures_share_columns():
    fig08 = run_experiment(
        "fig08",
        workloads=["car"],
        config_grid={"car": [{"abnormal_threshold": 0}, {"abnormal_threshold": 1}]},
        tuples=SMALL,
    )
    assert {row["threshold"] for row in fig08.rows} == {0, 1}
    assert all("precision_a" in row and "dag" in row for row in fig08.rows)
    fig11 = run_experiment(
        "fig11",
        workloads=["car"],
        config_grid={"car": [{"abnormal_threshold": 1}]},
        tuples=SMALL,
    )
    assert all("f1" in row and "runtime_s" in row for row in fig11.rows)


def test_error_rate_figures():
    result = run_experiment(
        "fig12", workloads=["car"], error_rates=[0.05, 0.2], tuples=SMALL
    )
    assert len(result.rows) == 2
    assert all("recall_a" in row for row in result.rows)


def test_fig15_and_table06():
    fig15 = run_experiment(
        "fig15",
        workloads=["tpch"],
        error_rates=[0.05],
        cleaners=[{"options": {"backend": "distributed", "workers": 2}}],
        tuples=SMALL,
    )
    assert len(fig15.rows) == 1
    assert fig15.rows[0]["workers"] == 2
    table06 = run_experiment(
        "table06",
        cleaners=[
            {"options": {"backend": "distributed", "workers": n}} for n in (2, 4)
        ],
        tuples=SMALL,
    )
    assert [row["workers"] for row in table06.rows] == [2, 4]
    assert all(row["runtime_s"] > 0 for row in table06.rows)


def test_table05_metrics():
    result = run_experiment("table05", workloads=["car"], tuples=SMALL)
    # the ablation now includes the Damerau variant, which shares the
    # Levenshtein fast-path preprocessing (like-with-like comparison)
    assert {row["metric"] for row in result.rows} == {
        "levenshtein",
        "damerau",
        "cosine",
    }


def test_ablations_run():
    rscore = run_experiment("ablation_rscore", workloads=["car"], tuples=SMALL)
    assert {row["variant"] for row in rscore.rows} == {
        "full",
        "weight_only",
        "distance_only",
    }
    fscr = run_experiment("ablation_fscr", workloads=["car"], tuples=SMALL)
    assert len(fscr.rows) == 2
    partition = run_experiment(
        "ablation_partition",
        cleaners=[
            {
                "label": "algorithm3",
                "options": {"backend": "distributed", "workers": 2},
            },
            {
                "cleaner": "roundrobin-distributed",
                "label": "round_robin",
                "options": {"workers": 2},
            },
        ],
        tuples=SMALL,
    )
    assert {row["partitioner"] for row in partition.rows} == {
        "algorithm3",
        "round_robin",
    }
