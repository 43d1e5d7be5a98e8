"""Integration tests for the end-to-end MLNClean pipeline."""

import pytest

from repro import MLNClean, MLNCleanConfig
from repro.constraints.violations import is_consistent
from repro.dataset.sample import sample_hospital_clean_table
from repro.workloads.registry import recommended_config


def test_pipeline_reproduces_paper_example(
    sample_table, sample_rules, sample_ground_truth, sample_config
):
    report = MLNClean(sample_config).clean(sample_table, sample_rules, sample_ground_truth)
    # Every repaired tuple matches the paper's intended clean values.
    assert report.repaired.equals(sample_hospital_clean_table())
    # t1/t2 and t3..t6 collapse to one representative each.
    assert sorted(report.cleaned.tids) == [0, 2]
    assert report.accuracy is not None
    assert report.accuracy.f1 == pytest.approx(1.0)


def test_pipeline_output_consistent_with_rules(sample_table, sample_rules, sample_config):
    report = MLNClean(sample_config).clean(sample_table, sample_rules)
    assert is_consistent(report.repaired, sample_rules)
    assert is_consistent(report.cleaned, sample_rules)


def test_pipeline_requires_rules(sample_table):
    with pytest.raises(ValueError):
        MLNClean().clean(sample_table, [])


def test_pipeline_without_ground_truth_has_no_accuracy(sample_table, sample_rules):
    report = MLNClean().clean(sample_table, sample_rules)
    assert report.accuracy is None
    assert report.f1 == 0.0


def test_pipeline_does_not_mutate_input(sample_table, sample_rules, sample_config):
    snapshot = sample_table.copy()
    MLNClean(sample_config).clean(sample_table, sample_rules)
    assert sample_table.equals(snapshot)


def test_pipeline_timings_cover_all_phases(sample_table, sample_rules, sample_config):
    report = MLNClean(sample_config).clean(sample_table, sample_rules)
    assert {"index", "agp", "rsc", "fscr", "dedup"} <= set(report.timings.phases)
    assert report.runtime > 0


def test_pipeline_dedup_can_be_disabled(sample_table, sample_rules):
    config = MLNCleanConfig(abnormal_threshold=1, remove_duplicates=False)
    report = MLNClean(config).clean(sample_table, sample_rules)
    assert len(report.cleaned) == len(sample_table)
    assert report.dedup is None
    full = MLNClean(MLNCleanConfig(abnormal_threshold=1)).clean(sample_table, sample_rules)
    # the cleaned table keeps the duplicates a full run removes ...
    assert len(report.cleaned) > len(full.cleaned)
    # ... and the repair itself is unchanged
    assert report.repaired.equals(full.repaired)


def test_pipeline_summary_and_describe(
    sample_table, sample_rules, sample_ground_truth, sample_config
):
    report = MLNClean(sample_config).clean(sample_table, sample_rules, sample_ground_truth)
    summary = report.summary()
    assert summary["f1"] == pytest.approx(1.0)
    assert summary["tuples_in"] == 6.0
    text = report.describe()
    assert "accuracy" in text
    assert "duplicates removed" in text


def test_pipeline_on_hai_workload(hai_instance):
    """MLNClean fixes a substantial share of the injected errors on HAI."""
    from repro.constraints.violations import detect_violations

    config = recommended_config("hai")
    report = MLNClean(config).clean(
        hai_instance.dirty, hai_instance.rules, hai_instance.ground_truth
    )
    assert report.accuracy is not None
    assert report.accuracy.f1 > 0.6
    # schema-level violations drop sharply compared to the dirty input
    before = len(detect_violations(hai_instance.dirty, hai_instance.rules))
    after = len(detect_violations(report.repaired, hai_instance.rules))
    assert after < before * 0.2


def test_pipeline_on_car_workload(car_instance):
    config = recommended_config("car")
    report = MLNClean(config).clean(
        car_instance.dirty, car_instance.rules, car_instance.ground_truth
    )
    assert report.accuracy is not None
    assert report.accuracy.f1 > 0.3
    assert report.accuracy.recall > 0.3


def test_pipeline_clean_input_stays_clean(hai_workload):
    """Cleaning an already-clean table must not corrupt it."""
    config = recommended_config("hai")
    clean = hai_workload.clean
    report = MLNClean(config).clean(clean, hai_workload.rules)
    changed = clean.diff_cells(report.repaired)
    assert len(changed) == 0
