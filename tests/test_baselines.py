"""Unit tests for the HoloClean-style baseline and the minimality repairer."""

import pytest

from repro.detect.builtin import (
    PerfectDetector,
    UnionDetector,
    ViolationDetector,
)
from repro.baselines.factor_graph import CellFactorGraph, CooccurrenceModel
from repro.baselines.holoclean import HoloCleanBaseline, HoloCleanConfig
from repro.baselines.minimal_repair import MinimalityRepairer
from repro.dataset.table import Cell, Table


# ----------------------------------------------------------------------
# detectors
# ----------------------------------------------------------------------
def test_perfect_detector_returns_injected_cells(sample_table, sample_rules, sample_ground_truth):
    detector = PerfectDetector(sample_ground_truth)
    assert detector.detect(sample_table, sample_rules) == sample_ground_truth.dirty_cells


def test_violation_detector_flags_suspect_cells(sample_table, sample_rules):
    cells = ViolationDetector().detect(sample_table, sample_rules)
    assert Cell(3, "ST") in cells


def test_union_detector(sample_table, sample_rules, sample_ground_truth):
    union = UnionDetector([PerfectDetector(sample_ground_truth), ViolationDetector()])
    cells = union.detect(sample_table, sample_rules)
    assert sample_ground_truth.dirty_cells <= cells
    with pytest.raises(ValueError):
        UnionDetector([])


# ----------------------------------------------------------------------
# co-occurrence statistics
# ----------------------------------------------------------------------
def co_table():
    return Table.from_records(
        [
            {"City": "BOAZ", "State": "AL"},
            {"City": "BOAZ", "State": "AL"},
            {"City": "DOTHAN", "State": "AL"},
            {"City": "MIAMI", "State": "FL"},
        ]
    )


def test_cooccurrence_conditional_and_frequency():
    model = CooccurrenceModel.fit(co_table(), set())
    assert model.conditional("State", "AL", "City", "BOAZ") == pytest.approx(1.0)
    assert model.conditional("City", "BOAZ", "State", "AL") == pytest.approx(2 / 3)
    assert model.frequency("State", "AL") == pytest.approx(0.75)
    assert model.conditional("State", "AL", "City", "UNSEEN") == 0.0


def test_cooccurrence_excludes_noisy_cells():
    noisy = {Cell(0, "State")}
    model = CooccurrenceModel.fit(co_table(), noisy)
    assert model.value_counts[("State", "AL")] == 2


def test_candidate_values_ranked_by_context():
    model = CooccurrenceModel.fit(co_table(), set())
    candidates = model.candidate_values("State", {"City": "MIAMI"}, limit=3)
    assert candidates[0] == "FL"


# ----------------------------------------------------------------------
# factor graph + baseline
# ----------------------------------------------------------------------
def test_factor_graph_repairs_fd_violation(sample_table, sample_rules, sample_ground_truth):
    graph = CellFactorGraph(
        sample_table, sample_rules, sample_ground_truth.dirty_cells, seed=3
    )
    graph.train(epochs=5)
    best = graph.map_repair(Cell(3, "ST"))
    assert best.value == "AL"


def test_factor_graph_candidates_include_current_value(sample_table, sample_rules):
    graph = CellFactorGraph(sample_table, sample_rules, {Cell(3, "ST")})
    candidates = graph.candidates_for(Cell(3, "ST"))
    assert any(candidate.value == "AK" for candidate in candidates)


def test_holoclean_on_sample(sample_table, sample_rules, sample_ground_truth):
    report = HoloCleanBaseline().clean(sample_table, sample_rules, sample_ground_truth)
    assert report.accuracy is not None
    # perfect detection: the detected cells are the injected ones
    assert report.details["detected_cells"] == len(sample_ground_truth.dirty_cells)
    assert 0.0 <= report.f1 <= 1.0
    assert report.runtime > 0.0
    # only detected cells may change
    changed = set(report.dirty.diff_cells(report.repaired))
    assert changed <= sample_ground_truth.dirty_cells


def test_holoclean_without_ground_truth_uses_violations(sample_table, sample_rules):
    report = HoloCleanBaseline().clean(sample_table, sample_rules)
    assert report.accuracy is None
    assert report.details["detected_cells"]  # violation detector found something


def test_holoclean_reasonable_on_hai(hai_instance):
    config = HoloCleanConfig(training_sample=500, training_epochs=5)
    report = HoloCleanBaseline(config).clean(
        hai_instance.dirty, hai_instance.rules, hai_instance.ground_truth
    )
    assert report.accuracy is not None
    assert report.accuracy.f1 > 0.5


def test_holoclean_no_errors_makes_no_repairs(hai_workload):
    from repro.errors.groundtruth import GroundTruth

    report = HoloCleanBaseline().clean(
        hai_workload.clean, hai_workload.rules, GroundTruth()
    )
    assert report.dirty.diff_cells(report.repaired) == []
    assert report.f1 == 1.0


# ----------------------------------------------------------------------
# minimality repairer
# ----------------------------------------------------------------------
def test_minimality_repairer_fixes_majority_violation(sample_table, sample_rules, sample_ground_truth):
    report = MinimalityRepairer().clean(sample_table, sample_rules, sample_ground_truth)
    # the FD violation on ST is repaired by majority (AK -> AL)
    assert report.repaired.value(3, "ST") == "AL"
    # but the typo DOTH violates no rule, so it stays (the paper's motivation)
    assert report.repaired.value(1, "CT") == "DOTH"
    assert report.accuracy is not None
    assert report.accuracy.recall < 1.0


def test_minimality_repairer_cfd_constant(sample_table, sample_rules):
    report = MinimalityRepairer().clean(sample_table, sample_rules)
    # every tuple matching HN=ELIZA, CT=BOAZ gets the constant phone number
    for tid in (3, 4, 5):
        assert report.repaired.value(tid, "PN") == "2567688400"
