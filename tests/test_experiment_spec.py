"""The declarative experiment API: specs, runner, artifacts, round-trips."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.report import (
    CleaningReport,
    table_from_json_dict,
    table_to_json_dict,
)
from repro.dataset.sample import sample_hospital_rules, sample_hospital_table
from repro.experiments import (
    EXPERIMENTS,
    CellResult,
    CleanerSpec,
    ConfigCell,
    ExperimentRunner,
    ExperimentSpec,
    RunArtifact,
    available_specs,
    load_spec,
    render_fig06,
    run_experiment,
)
from repro.experiments.distributed import render_table06
from repro.session.cleaners import CleaningRequest, get_cleaner

SMALL = 200

SPECS_DIR = Path(__file__).resolve().parent.parent / "src" / "repro" / "experiments" / "specs"


def tiny_fig06_spec() -> ExperimentSpec:
    """The checked-in fig06 spec, scaled down for the test suite."""
    return replace(
        load_spec("fig06"),
        workloads=["car"],
        error_rates=[0.05, 0.15],
        tuples=SMALL,
    )


# ----------------------------------------------------------------------
# specs: checked-in files, JSON round-trip, errors
# ----------------------------------------------------------------------
def test_checked_in_specs_cover_the_figures():
    expected = {
        "fig06",
        "fig07",
        "fig15",
        "table05",
        "table06",
        "threshold_sweep",
        "error_rate_sweep",
        "ablation_fscr",
        "ablation_rscore",
        "ablation_partition",
        "streaming_replay",
        "smoke",
    }
    assert expected <= set(available_specs())


def test_spec_json_round_trip_is_bit_identical():
    for name in available_specs():
        text = (SPECS_DIR / f"{name}.json").read_text()
        spec = ExperimentSpec.from_json(text)
        assert spec.to_json() == text, name


def test_load_spec_accepts_paths_and_spec_objects(tmp_path):
    spec = load_spec("smoke")
    assert load_spec(spec) is spec
    path = tmp_path / "copy.json"
    path.write_text(spec.to_json())
    assert load_spec(path).name == "smoke"
    assert load_spec(str(path)).name == "smoke"


def test_unknown_spec_error_lists_available_names():
    with pytest.raises(KeyError, match="unknown experiment spec") as excinfo:
        load_spec("fig99")
    assert "'fig06'" in str(excinfo.value)


def test_config_cell_shorthand_and_labels():
    cell = ConfigCell.from_json_dict({"abnormal_threshold": 3})
    assert cell.overrides == {"abnormal_threshold": 3}
    assert cell.display == "abnormal_threshold=3"
    assert ConfigCell().display == "default"
    assert ConfigCell(label="tau=3").display == "tau=3"
    assert CleanerSpec.from_json_dict("holoclean").cleaner == "holoclean"


def test_grid_for_is_case_insensitive_like_the_workload_registry():
    spec = ExperimentSpec(
        name="case-test",
        workloads=["CAR"],
        config_grid={"CAR": [ConfigCell(overrides={"abnormal_threshold": 2})]},
    )
    assert spec.grid_for("car")[0].overrides == {"abnormal_threshold": 2}
    assert spec.grid_for("CAR")[0].overrides == {"abnormal_threshold": 2}
    lowered = ExperimentSpec(
        name="case-test-2",
        workloads=["CAR"],
        config_grid={"car": [ConfigCell(overrides={"abnormal_threshold": 3})]},
    )
    assert lowered.grid_for("CAR")[0].overrides == {"abnormal_threshold": 3}


def test_workload_missing_from_a_per_workload_grid_fails_before_running():
    spec = ExperimentSpec(
        name="missing", workloads=["car"], config_grid={"hai": [ConfigCell()]}
    )
    with pytest.raises(ValueError, match="no entry for workload 'car'"):
        spec.grid_for("car")
    # fails up front, not as a KeyError in the renderer after the car cells
    with pytest.raises(ValueError, match="no entry for workload 'tpch'"):
        run_experiment("fig08", workloads=["car", "tpch"], tuples=40)


def test_streaming_replay_checks_each_grid_point_against_its_own_batch_run():
    result = run_experiment(
        "streaming_replay", workloads=["hospital-sample"], tuples=48
    )
    by_system = {row["system"]: row for row in result.rows}
    # the batch reference row carries no self-comparison column
    assert "matches_batch" not in by_system["MLNClean"]
    assert by_system["MLNClean[streaming]"]["matches_batch"] is True


def test_experiments_registry_covers_all_figures_and_renderers():
    expected = {f"fig{i:02d}" for i in range(6, 16)} | {"table05", "table06"}
    assert expected <= set(EXPERIMENTS)
    assert {spec for spec, _render in EXPERIMENTS.values()} <= set(available_specs())


def test_mistyped_spec_file_key_is_an_error(tmp_path):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({"name": "typo", "error_rate": [0.3], "tupels": 40}))
    with pytest.raises(ValueError, match="'error_rate', 'tupels'"):
        load_spec(path)


def test_mistyped_run_experiment_keyword_is_an_error():
    with pytest.raises(ValueError, match="'datasets'"):
        run_experiment("fig06", datasets=["car"], tuples=40)
    with pytest.raises(KeyError, match="unknown experiment 'fig99'"):
        run_experiment("fig99")


@pytest.mark.parametrize(
    "axis", ["workloads", "cleaners", "error_rates", "replacement_ratios", "config_grid"]
)
def test_explicitly_empty_axis_is_an_error(axis):
    with pytest.raises(ValueError, match=f"empty experiment spec axis: '{axis}'"):
        load_spec("fig06").override(**{axis: []})


def test_empty_per_workload_grid_is_an_error():
    with pytest.raises(ValueError, match="'config_grid'"):
        load_spec("threshold_sweep").override(config_grid={"car": [], "hai": [{}]})


def test_long_form_cleaner_and_config_cell_reject_unknown_keys():
    with pytest.raises(ValueError, match="unknown cleaner spec key.*'option'"):
        CleanerSpec.from_json_dict({"cleaner": "mlnclean", "option": {"workers": 2}})
    with pytest.raises(ValueError, match="unknown config cell key.*'overide'"):
        ConfigCell.from_json_dict({"label": "tau", "overide": {"abnormal_threshold": 1}})


def test_table06_speedup_is_per_dataset():
    def cell(workload, workers, runtime):
        return CellResult(
            coords={"workload": workload},
            metrics={
                "workers": float(workers),
                "sim_runtime_s": runtime,
                "sequential_s": 4.0,
                "f1": 0.5,
            },
        )

    artifact = RunArtifact(
        spec=ExperimentSpec(name="table06"),
        cells=[
            cell("tpch", 2, 1.0),
            cell("tpch", 4, 0.5),
            cell("hai", 2, 4.0),
            cell("hai", 4, 2.0),
        ],
    )
    speedups = [row["speedup_vs_first"] for row in render_table06(artifact).rows]
    assert speedups == [1.0, 2.0, 1.0, 2.0]


# ----------------------------------------------------------------------
# runner: grid expansion, equivalence with direct session runs
# ----------------------------------------------------------------------
def test_runner_expands_the_full_grid():
    spec = ExperimentSpec(
        name="grid-test",
        workloads=["car"],
        cleaners=[CleanerSpec(), CleanerSpec(cleaner="minimal-repair")],
        error_rates=[0.05, 0.10],
        config_grid=[ConfigCell(), ConfigCell(overrides={"abnormal_threshold": 2})],
        tuples=SMALL,
        store_reports=False,
    )
    artifact = ExperimentRunner(spec).run()
    assert len(artifact.cells) == 2 * 2 * 2  # rates x configs x cleaners
    # expansion order: error rate -> config -> cleaner
    first = artifact.cells[0].coords
    assert first["error_rate"] == 0.05
    assert first["config"]["overrides"] == {}
    assert first["system"] == "MLNClean"
    assert artifact.cells[1].coords["system"] == "MinimalRepair"
    assert artifact.cells[2].coords["config"]["overrides"] == {
        "abnormal_threshold": 2
    }
    assert all(cell.report is None for cell in artifact.cells)
    assert all(cell.perf["distance_calls"] >= 0 for cell in artifact.cells)


def test_rerunning_a_spec_reproduces_the_numbers():
    spec = tiny_fig06_spec()
    first = ExperimentRunner(spec).run()
    second = ExperimentRunner(spec).run()
    for a, b in zip(first.cells, second.cells):
        assert a.coords == b.coords
        for key in a.metrics:
            if key == "runtime_s":
                continue
            assert a.metrics[key] == b.metrics[key], key


# ----------------------------------------------------------------------
# artifacts: lossless JSON, bit-identical re-rendering
# ----------------------------------------------------------------------
def test_artifact_json_round_trip_is_bit_identical(tmp_path):
    artifact = ExperimentRunner(tiny_fig06_spec()).run()
    text = artifact.to_json()
    reloaded = RunArtifact.from_json(text)
    assert reloaded.to_json() == text
    # and through the filesystem helpers
    path = artifact.save(tmp_path / "artifact.json")
    assert RunArtifact.load(path).to_json() == text


def test_deserialized_artifact_rerenders_the_identical_figure():
    artifact = ExperimentRunner(tiny_fig06_spec()).run()
    rendered = render_fig06(artifact).render()
    reloaded = RunArtifact.from_json(artifact.to_json())
    assert render_fig06(reloaded).render() == rendered
    # the round-tripped reports still carry the cleaned tables
    for original, copy in zip(artifact.cells, reloaded.cells):
        assert copy.report.cleaned.equals(original.report.cleaned)
        assert copy.report.f1 == pytest.approx(original.report.f1)


def test_fig07_checked_in_spec_round_trips_and_rerenders():
    from repro.experiments import render_fig07

    spec = replace(
        load_spec("fig07"),
        workloads=["car"],
        replacement_ratios=[0.0, 1.0],
        tuples=SMALL,
    )
    artifact = ExperimentRunner(spec).run()
    assert {cell.coords["replacement_ratio"] for cell in artifact.cells} == {0.0, 1.0}
    reloaded = RunArtifact.from_json(artifact.to_json())
    assert reloaded.to_json() == artifact.to_json()
    assert render_fig07(reloaded).render() == render_fig07(artifact).render()
    # re-running the same checked-in spec reproduces the numbers bit for bit
    again = ExperimentRunner(spec).run()
    for a, b in zip(artifact.cells, again.cells):
        for key in a.metrics:
            if key != "runtime_s":
                assert a.metrics[key] == b.metrics[key], key


def test_artifact_metric_keys_are_the_schema_surface():
    artifact = ExperimentRunner(tiny_fig06_spec()).run()
    keys = artifact.metric_keys()
    assert keys == sorted(keys)
    assert {"system", "f1", "precision", "recall", "runtime_s"} <= set(keys)


def test_smoke_spec_runs_all_builtin_cleaners():
    spec = replace(load_spec("smoke"), tuples=40)
    artifact = ExperimentRunner(spec).run()
    systems = [cell.metrics["system"] for cell in artifact.cells]
    assert systems == ["MLNClean", "HoloClean", "MinimalRepair", "FactorGraph"]
    schema_path = (
        Path(__file__).resolve().parent.parent
        / "benchmarks"
        / "schemas"
        / "experiments_smoke_metrics.json"
    )
    # the checked-in CI schema matches what the smoke spec produces
    assert artifact.metric_keys() == json.loads(schema_path.read_text())


# ----------------------------------------------------------------------
# CleaningReport JSON round-trip
# ----------------------------------------------------------------------
def test_table_json_round_trip_preserves_tids_and_values():
    table = sample_hospital_table()
    table.remove(2)  # make the tid sequence non-contiguous
    clone = table_from_json_dict(table_to_json_dict(table))
    assert clone.equals(table)
    assert clone.name == table.name


def test_cleaning_report_round_trip_for_every_cleaner(sample_ground_truth):
    for name in ("mlnclean", "holoclean", "minimal-repair", "factor-graph"):
        request = CleaningRequest(
            dirty=sample_hospital_table(),
            rules=sample_hospital_rules(),
            ground_truth=sample_ground_truth,
        )
        report = get_cleaner(name).run(request)
        data = report.to_json_dict()
        clone = CleaningReport.from_json_dict(data)
        # serialization is idempotent: re-serializing reproduces the JSON
        assert clone.to_json_dict() == data, name
        assert clone.cleaned.equals(report.cleaned), name
        assert clone.backend == report.backend, name
        assert clone.f1 == pytest.approx(report.f1), name
        assert clone.runtime == pytest.approx(report.runtime), name
        # component accuracy survives via the stage counts
        assert (
            clone.component_accuracy.as_dict()
            == report.component_accuracy.as_dict()
        ), name
        if report.dedup is not None:
            assert clone.dedup.removed_tids == report.dedup.removed_tids


def test_report_describe_works_after_round_trip(sample_ground_truth):
    request = CleaningRequest(
        dirty=sample_hospital_table(),
        rules=sample_hospital_rules(),
        ground_truth=sample_ground_truth,
    )
    report = get_cleaner("mlnclean").run(request)
    clone = CleaningReport.from_json_dict(report.to_json_dict())
    assert "tuples:" in clone.describe()
    assert clone.summary().keys() == report.summary().keys()
