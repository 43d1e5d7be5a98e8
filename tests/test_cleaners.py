"""The Cleaner protocol: registry, baseline adapters, session integration."""

import pytest

from repro import CleaningSession, available_cleaners, get_cleaner, register_cleaner
from repro.baselines.holoclean import HoloCleanBaseline
from repro.baselines.minimal_repair import MinimalityRepairer
from repro.core.report import CleaningReport
from repro.dataset.sample import sample_hospital_rules, sample_hospital_table
from repro.session.cleaners import CleaningRequest, MLNCleanCleaner, display_name


BASELINE_CLEANERS = ("holoclean", "minimal-repair", "factor-graph")


def build_session(cleaner, ground_truth=None, **options):
    builder = (
        CleaningSession.builder()
        .with_rules(sample_hospital_rules())
        .with_config(abnormal_threshold=1)
        .with_cleaner(cleaner, **options)
        .with_table(sample_hospital_table())
    )
    if ground_truth is not None:
        builder = builder.with_ground_truth(ground_truth)
    return builder.build()


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


# ----------------------------------------------------------------------
# session/builder integration
# ----------------------------------------------------------------------
def test_default_cleaner_is_mlnclean_on_batch():
    session = (
        CleaningSession.builder().with_rules(sample_hospital_rules()).build()
    )
    assert session.cleaner.name == "mlnclean"
    assert session.backend == "batch"
    assert "cleaner=mlnclean" in session.describe()


def test_with_cleaner_mlnclean_composes_with_backend():
    session = (
        CleaningSession.builder()
        .with_rules(sample_hospital_rules())
        .with_cleaner("mlnclean")
        .with_backend("distributed", workers=2)
        .build()
    )
    assert session.backend == "distributed"
    assert session.cleaner.options["workers"] == 2
    assert display_name(session.cleaner) == "MLNClean[distributed]"


def test_baseline_cleaner_has_no_backend(sample_ground_truth):
    session = build_session("holoclean", sample_ground_truth)
    assert session.backend is None
    assert "backend=" not in session.describe()
    assert "cleaner=holoclean" in session.describe()


def test_with_backend_conflicts_with_baseline_cleaner():
    with pytest.raises(ValueError, match="'mlnclean' cleaner only"):
        (
            CleaningSession.builder()
            .with_cleaner("holoclean")
            .with_backend("distributed", workers=2)
            .build()
        )


def test_backend_selected_twice_is_rejected():
    with pytest.raises(ValueError, match="selected twice"):
        (
            CleaningSession.builder()
            .with_cleaner("mlnclean", backend="streaming")
            .with_backend("distributed")
            .build()
        )


def test_session_constructor_rejects_cleaner_plus_backend():
    with pytest.raises(ValueError, match="either cleaner or backend"):
        CleaningSession(backend="distributed", cleaner="mlnclean")


def test_session_for_instance_forwards_mlnclean_cleaner_options(
    sample_ground_truth,
):
    from repro.errors.injector import ErrorSpec
    from repro.experiments.harness import session_for_instance
    from repro.workloads import get_workload_generator

    workload = get_workload_generator("hospital-sample", tuples=24).build()
    instance = workload.make_instance(ErrorSpec(error_rate=0.05, seed=42))
    session = session_for_instance(
        instance,
        cleaner="mlnclean",
        cleaner_options={"backend": "distributed", "workers": 2},
    )
    assert session.backend == "distributed"
    assert session.cleaner.options["workers"] == 2


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
