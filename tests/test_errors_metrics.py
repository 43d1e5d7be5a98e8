"""Unit and property tests for error injection, ground truth and metrics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataset.table import Cell, Table
from repro.errors.groundtruth import ErrorType, GroundTruth, InjectedError
from repro.errors.injector import ErrorInjector, ErrorSpec
from repro.metrics.accuracy import RepairAccuracy, evaluate_repair
from repro.metrics.component import ComponentAccuracy, StageCounts
from repro.metrics.timing import TimingBreakdown


def small_table(rows: int = 40) -> Table:
    return Table.from_records(
        [
            {"A": f"value-{i % 7}", "B": f"other-{i % 5}", "C": f"free-{i}"}
            for i in range(rows)
        ]
    )


# ----------------------------------------------------------------------
# ground truth
# ----------------------------------------------------------------------
def test_ground_truth_basics():
    error = InjectedError(Cell(0, "A"), "clean", "dirty", ErrorType.TYPO)
    ledger = GroundTruth([error])
    assert ledger.is_dirty(Cell(0, "A"))
    assert ledger.clean_value(Cell(0, "A")) == "clean"
    assert len(ledger) == 1
    assert ledger.errors_of_type(ErrorType.TYPO) == [error]
    assert ledger.type_counts()[ErrorType.REPLACEMENT] == 0


def test_ground_truth_rejects_duplicate_cell():
    ledger = GroundTruth()
    ledger.add(InjectedError(Cell(0, "A"), "x", "y", ErrorType.TYPO))
    with pytest.raises(ValueError):
        ledger.add(InjectedError(Cell(0, "A"), "x", "z", ErrorType.TYPO))


def test_ground_truth_clean_table_restores_values():
    table = small_table(5)
    dirty = table.copy()
    dirty.set_value(0, "A", "broken")
    ledger = GroundTruth(
        [InjectedError(Cell(0, "A"), table.value(0, "A"), "broken", ErrorType.TYPO)]
    )
    restored = ledger.clean_table(dirty)
    assert restored.value(0, "A") == table.value(0, "A")


def test_ground_truth_merge_disjoint():
    a = GroundTruth([InjectedError(Cell(0, "A"), "x", "y", ErrorType.TYPO)])
    b = GroundTruth([InjectedError(Cell(1, "A"), "x", "y", ErrorType.REPLACEMENT)])
    assert len(a.merge(b)) == 2


# ----------------------------------------------------------------------
# injector
# ----------------------------------------------------------------------
def test_injector_respects_error_rate():
    table = small_table(100)
    result = ErrorInjector(ErrorSpec(error_rate=0.10, seed=1)).inject(table)
    expected = round(0.10 * table.cell_count)
    assert abs(result.injected_count - expected) <= 3  # a few skips are allowed
    assert result.dirty is not table


def test_injector_only_touches_target_attributes():
    table = small_table(60)
    spec = ErrorSpec(error_rate=0.1, attributes=["A"], seed=2)
    result = ErrorInjector(spec).inject(table)
    assert all(error.cell.attribute == "A" for error in result.ground_truth)
    for row in result.dirty:
        assert row["B"] == table.row(row.tid)["B"]


def test_injector_replacement_values_stay_in_domain():
    table = small_table(80)
    spec = ErrorSpec(error_rate=0.1, replacement_ratio=1.0, seed=3)
    result = ErrorInjector(spec).inject(table)
    domains = {a: set(table.domain(a).values) for a in table.schema}
    for error in result.ground_truth:
        if error.error_type is ErrorType.REPLACEMENT:
            assert error.dirty_value in domains[error.cell.attribute]
            assert error.dirty_value != error.clean_value


def test_injector_typos_shorter_by_one():
    table = small_table(80)
    spec = ErrorSpec(error_rate=0.1, replacement_ratio=0.0, seed=4)
    result = ErrorInjector(spec).inject(table)
    assert result.injected_count > 0
    for error in result.ground_truth:
        assert error.error_type is ErrorType.TYPO
        assert len(error.dirty_value) == len(error.clean_value) - 1


def test_injector_zero_rate():
    result = ErrorInjector(ErrorSpec(error_rate=0.0)).inject(small_table(10))
    assert result.injected_count == 0
    assert result.achieved_error_rate == 0.0


def test_error_spec_validation():
    with pytest.raises(ValueError):
        ErrorSpec(error_rate=1.5)
    with pytest.raises(ValueError):
        ErrorSpec(replacement_ratio=-0.1)


def test_injector_rule_attribute_targeting(sample_table, sample_rules):
    spec = ErrorSpec(error_rate=0.2, seed=5)
    result = ErrorInjector(spec).inject(sample_table, sample_rules)
    rule_attrs = {a for rule in sample_rules for a in rule.attributes}
    assert set(result.target_attributes) == rule_attrs


@settings(max_examples=25, deadline=None)
@given(
    rate=st.floats(min_value=0.0, max_value=0.3),
    ratio=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_injector_ledger_matches_dirty_table(rate, ratio, seed):
    """Every recorded error matches the dirty table; untouched cells are clean."""
    table = small_table(30)
    result = ErrorInjector(ErrorSpec(error_rate=rate, replacement_ratio=ratio, seed=seed)).inject(table)
    for error in result.ground_truth:
        assert result.dirty.cell_value(error.cell) == error.dirty_value
        assert table.cell_value(error.cell) == error.clean_value
        assert error.dirty_value != error.clean_value
    dirty_cells = result.ground_truth.dirty_cells
    for cell in table.cells():
        if cell not in dirty_cells:
            assert result.dirty.cell_value(cell) == table.cell_value(cell)


# ----------------------------------------------------------------------
# repair accuracy
# ----------------------------------------------------------------------
def test_evaluate_repair_perfect_fix():
    clean = small_table(10)
    dirty = clean.copy()
    dirty.set_value(0, "A", "broken")
    ledger = GroundTruth(
        [InjectedError(Cell(0, "A"), clean.value(0, "A"), "broken", ErrorType.TYPO)]
    )
    accuracy = evaluate_repair(dirty, clean.copy(), ledger)
    assert accuracy.precision == 1.0
    assert accuracy.recall == 1.0
    assert accuracy.f1 == 1.0


def test_evaluate_repair_no_repairs():
    clean = small_table(10)
    dirty = clean.copy()
    dirty.set_value(0, "A", "broken")
    ledger = GroundTruth(
        [InjectedError(Cell(0, "A"), clean.value(0, "A"), "broken", ErrorType.TYPO)]
    )
    accuracy = evaluate_repair(dirty, dirty.copy(), ledger)
    assert accuracy.recall == 0.0
    assert accuracy.missed_errors == 1


def test_evaluate_repair_false_update_hurts_precision():
    clean = small_table(10)
    dirty = clean.copy()
    dirty.set_value(0, "A", "broken")
    ledger = GroundTruth(
        [InjectedError(Cell(0, "A"), clean.value(0, "A"), "broken", ErrorType.TYPO)]
    )
    repaired = clean.copy()
    repaired.set_value(1, "B", "wrong-change")
    accuracy = evaluate_repair(dirty, repaired, ledger)
    assert accuracy.false_updates == 1
    assert accuracy.precision == pytest.approx(0.5)
    assert accuracy.recall == 1.0


def test_evaluate_repair_removed_tuples_counted():
    clean = small_table(10)
    dirty = clean.copy()
    dirty.set_value(0, "A", "broken")
    ledger = GroundTruth(
        [InjectedError(Cell(0, "A"), clean.value(0, "A"), "broken", ErrorType.TYPO)]
    )
    repaired = dirty.copy()
    repaired.remove(0)
    accuracy = evaluate_repair(dirty, repaired, ledger)
    assert accuracy.removed_dirty_cells == 1
    assert accuracy.erroneous_cells == 0


def test_repair_accuracy_edge_cases():
    empty = RepairAccuracy()
    assert empty.precision == 1.0
    assert empty.recall == 1.0
    assert empty.f1 == 1.0
    assert set(empty.as_dict()) >= {"precision", "recall", "f1"}


# ----------------------------------------------------------------------
# component metrics and timing
# ----------------------------------------------------------------------
def test_component_accuracy_ratios():
    counts = StageCounts(
        detected_abnormal_groups=10,
        real_abnormal_groups=8,
        correctly_merged_groups=6,
        detected_abnormal_gammas=15,
        repaired_gammas=20,
        correctly_repaired_gammas=16,
        erroneous_gammas=18,
        fscr_correct_values=30,
        conflict_erroneous_values=10,
        conflict_correct_values=9,
        total_erroneous_values=40,
    )
    accuracy = ComponentAccuracy(counts)
    assert accuracy.precision_a == pytest.approx(0.6)
    assert accuracy.recall_a == pytest.approx(0.75)
    assert accuracy.detected_abnormal_gammas == 15
    assert accuracy.precision_r == pytest.approx(0.8)
    assert accuracy.recall_r == pytest.approx(16 / 18)
    assert accuracy.precision_f == pytest.approx(0.9)
    assert accuracy.recall_f == pytest.approx(0.75)


def test_component_accuracy_defaults():
    accuracy = ComponentAccuracy()
    assert accuracy.precision_a == 0.0
    assert accuracy.recall_a == 1.0
    assert accuracy.precision_r == 1.0
    assert accuracy.recall_f == 1.0


def test_stage_counts_merge():
    merged = StageCounts(repaired_gammas=2).merge(StageCounts(repaired_gammas=3))
    assert merged.repaired_gammas == 5


def test_timing_breakdown():
    breakdown = TimingBreakdown()
    with breakdown.time("phase"):
        pass
    breakdown.record("phase", 1.0)
    assert breakdown.total >= 1.0
    merged = breakdown.merge(TimingBreakdown({"other": 2.0}))
    assert merged.phases["other"] == 2.0
