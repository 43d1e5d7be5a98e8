"""The Cleaner protocol: registry, baseline adapters, session integration."""

import pytest

from repro import CleaningSession, available_cleaners, get_cleaner, register_cleaner
from repro.baselines.holoclean import HoloCleanBaseline
from repro.baselines.minimal_repair import MinimalityRepairer
from repro.core.config import MLNCleanConfig
from repro.core.report import CleaningReport
from repro.dataset.sample import sample_hospital_rules, sample_hospital_table
from repro.session.cleaners import CleaningRequest, MLNCleanCleaner, display_name


BASELINE_CLEANERS = ("holoclean", "minimal-repair", "factor-graph")


def build_session(cleaner, ground_truth=None, **options):
    return CleaningSession(
        rules=sample_hospital_rules(),
        config=MLNCleanConfig(abnormal_threshold=1),
        cleaner=get_cleaner(cleaner, **options),
        table=sample_hospital_table(),
        ground_truth=ground_truth,
    )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_available_cleaners_lists_builtins_canonically():
    names = available_cleaners()
    assert {"mlnclean", "holoclean", "minimal-repair", "factor-graph"} <= set(names)
    # aliases collapse onto the canonical name
    assert "minimal_repair" not in names
    assert "factor_graph" not in names


def test_aliases_resolve_to_same_factory():
    assert type(get_cleaner("minimal_repair")) is type(get_cleaner("minimal-repair"))
    assert type(get_cleaner("factor_graph")) is type(get_cleaner("factor-graph"))


def test_unknown_cleaner_error_lists_registered_names():
    with pytest.raises(KeyError, match="unknown cleaner 'sparkly'") as excinfo:
        get_cleaner("sparkly")
    message = str(excinfo.value)
    assert "registered cleaners:" in message
    assert "'mlnclean'" in message and "'holoclean'" in message


def test_register_cleaner_rejects_rebinding():
    class EchoCleaner:
        name = "echo-cleaner"

        def run(self, request):
            return MLNCleanCleaner().run(request)

    register_cleaner("echo-cleaner", EchoCleaner)
    register_cleaner("echo-cleaner", EchoCleaner)  # same factory: no-op
    with pytest.raises(ValueError, match="already registered"):
        register_cleaner("echo-cleaner", MLNCleanCleaner)


# ----------------------------------------------------------------------
# the three baselines behind the one protocol
# ----------------------------------------------------------------------
def test_holoclean_via_session_matches_direct_baseline(sample_ground_truth):
    session = build_session("holoclean", sample_ground_truth)
    report = session.run()
    assert isinstance(report, CleaningReport)
    assert report.backend == "holoclean"

    direct = HoloCleanBaseline().clean(
        sample_hospital_table(), sample_hospital_rules(), sample_ground_truth
    )
    assert report.details == {
        "detected_cells": len(sample_ground_truth.dirty_cells),
        "weights": direct.details["weights"],
    }
    assert len(report.details["weights"]) == 4
    assert report.repaired.equals(direct.repaired)
    assert report.cleaned.equals(direct.repaired)
    assert report.f1 == pytest.approx(direct.f1)


def test_minimal_repair_via_session_matches_direct_repairer(sample_ground_truth):
    session = build_session("minimal-repair", sample_ground_truth)
    report = session.run()
    assert report.backend == "minimal-repair"
    assert report.details == {}
    direct = MinimalityRepairer().clean(
        sample_hospital_table(), sample_hospital_rules(), sample_ground_truth
    )
    assert report.repaired.equals(direct.repaired)
    assert report.runtime > 0.0  # the adapter times the repair phase


def test_factor_graph_cleaner_repairs_only_detected_cells(sample_ground_truth):
    session = build_session("factor-graph", sample_ground_truth)
    report = session.run()
    assert report.backend == "factor-graph"
    # perfect detection: the detected cells are the injected ones
    assert report.details["detected_cells"] == len(sample_ground_truth.dirty_cells)
    assert set(report.dirty.diff_cells(report.repaired)) <= sample_ground_truth.dirty_cells
    # untrained: the prior weights stay at 1.0
    assert all(weight == 1.0 for weight in report.details["weights"])


def test_factor_graph_differs_from_trained_holoclean(sample_ground_truth):
    untrained = build_session("factor-graph", sample_ground_truth).run()
    trained = build_session("holoclean", sample_ground_truth).run()
    # both repair through the same graph, but only holoclean learns weights
    assert trained.details["detected_cells"] == untrained.details["detected_cells"]
    assert untrained.details["weights"] == [1.0, 1.0, 1.0, 1.0]


@pytest.mark.parametrize("epochs", [0, 3])
def test_factor_graph_is_holoclean_at_equal_epochs(sample_ground_truth, epochs, monkeypatch):
    from repro.baselines.factor_graph import CellFactorGraph

    if epochs == 0:
        # no training phase at all: not even its examples are built
        def no_examples(graph, sample_size=2000):
            raise AssertionError("built training examples for 0 epochs")

        monkeypatch.setattr(CellFactorGraph, "training_examples", no_examples)
    graph = build_session("factor-graph", sample_ground_truth, training_epochs=epochs).run()
    holo = build_session("holoclean", sample_ground_truth, training_epochs=epochs).run()
    assert graph.repaired.equals(holo.repaired)
    assert graph.details == holo.details
    assert (graph.backend, holo.backend) == ("factor-graph", "holoclean")
    assert graph.repaired.name.endswith("-factorgraph")
    assert holo.repaired.name.endswith("-holoclean")
    assert ("train" in graph.timings.phases) == (epochs > 0)


def test_negative_training_epochs_are_rejected():
    from repro.baselines.holoclean import HoloCleanConfig

    with pytest.raises(ValueError, match="training_epochs must be >= 0"):
        HoloCleanConfig(training_epochs=-1)
    for name in ("holoclean", "factor-graph"):
        with pytest.raises(ValueError, match="training_epochs"):
            get_cleaner(name, training_epochs=-1)


# ----------------------------------------------------------------------
# cross-cleaner CleaningRequest equivalence
# ----------------------------------------------------------------------
def test_every_cleaner_accepts_the_same_request(sample_ground_truth):
    request = CleaningRequest(
        dirty=sample_hospital_table(),
        rules=sample_hospital_rules(),
        ground_truth=sample_ground_truth,
    )
    for name in ("mlnclean", *BASELINE_CLEANERS):
        report = get_cleaner(name).run(request)
        assert isinstance(report, CleaningReport), name
        assert report.backend is not None, name
        assert report.accuracy is not None, name
        # every repaired table keeps the dirty table's tuples
        assert set(report.repaired.tids) == set(request.dirty.tids), name
        # dirty input is never mutated by any cleaner
        assert request.dirty.equals(sample_hospital_table()), name


COMPONENT_KEYS = (
    "precision_a", "recall_a", "dag",
    "precision_r", "recall_r", "precision_f", "recall_f",
)


def test_only_scored_runs_report_component_metrics():
    """Section 7.3's component metrics appear only where score_stages ran.

    A batch MLNClean run with a ground truth is scored; streaming,
    distributed and the baselines would otherwise print unscored zero-count
    defaults (precision 0.0, recall 1.0) as if they were measurements.
    """
    from repro.experiments.harness import prepare_instance, session_for_instance

    instance = prepare_instance("hai", tuples=160, error_rate=0.15)
    batch = session_for_instance(instance).run()
    summary = batch.summary()
    assert (summary["precision_a"], summary["recall_a"]) == pytest.approx(
        (0.609, 0.726), abs=1e-3
    )
    assert summary["dag"] == 135
    assert set(COMPONENT_KEYS) <= set(summary)
    assert "components:" in batch.describe()
    assert batch.stages_scored
    for cleaner in (
        MLNCleanCleaner("streaming"),
        MLNCleanCleaner("distributed"),
        "holoclean",
        "minimal-repair",
    ):
        report = session_for_instance(instance, cleaner=cleaner).run()
        assert report.accuracy is not None
        assert set(COMPONENT_KEYS).isdisjoint(report.summary()), report.backend
        assert "components:" not in report.describe(), report.backend
        assert not report.stages_scored, report.backend


# ----------------------------------------------------------------------
# session integration
# ----------------------------------------------------------------------
def test_default_cleaner_is_mlnclean_on_batch():
    session = CleaningSession(rules=sample_hospital_rules())
    assert session.cleaner.name == "mlnclean"
    assert session.backend == "batch"
    assert "cleaner=mlnclean" in session.describe()


def test_baseline_cleaner_has_no_backend(sample_ground_truth):
    session = build_session("holoclean", sample_ground_truth)
    assert session.backend is None
    assert "backend=" not in session.describe()
    assert "cleaner=holoclean" in session.describe()


def test_session_for_instance_forwards_mlnclean_cleaner_options(
    sample_ground_truth,
):
    from repro.errors.injector import ErrorSpec
    from repro.experiments.harness import session_for_instance
    from repro.workloads import get_workload_generator

    workload = get_workload_generator("hospital-sample", tuples=24).build()
    instance = workload.make_instance(ErrorSpec(error_rate=0.05, seed=42))
    session = session_for_instance(
        instance, cleaner=MLNCleanCleaner("distributed", workers=2)
    )
    assert session.backend == "distributed"
    assert session.cleaner.options["workers"] == 2
    assert display_name(session.cleaner) == "MLNClean[distributed]"
    named = session_for_instance(instance, cleaner="minimal-repair")
    assert named.cleaner.name == "minimal-repair" and named.backend is None


def test_session_constructor_accepts_cleaner_name(sample_ground_truth):
    session = CleaningSession(
        rules=sample_hospital_rules(),
        table=sample_hospital_table(),
        ground_truth=sample_ground_truth,
        cleaner="minimal-repair",
    )
    report = session.run()
    assert report.backend == "minimal-repair"


def test_display_names():
    assert display_name(get_cleaner("mlnclean")) == "MLNClean"
    assert display_name(get_cleaner("holoclean")) == "HoloClean"
    assert display_name(get_cleaner("minimal-repair")) == "MinimalRepair"
    assert display_name(get_cleaner("factor-graph")) == "FactorGraph"
    assert (
        display_name(get_cleaner("mlnclean", backend="streaming"))
        == "MLNClean[streaming]"
    )
