"""Unit and property tests for the MLN index (blocks, groups, γs)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints.rules import FunctionalDependency
from repro.core.config import MLNCleanConfig
from repro.core.index import DataPiece, Group, MLNIndex
from repro.dataset.table import Table
from repro.errors.injector import ErrorInjector, ErrorSpec
from repro.workloads.registry import recommended_config


def test_index_one_block_per_rule(sample_table, sample_rules):
    index = MLNIndex.build(sample_table, sample_rules)
    assert len(index) == len(sample_rules)
    assert set(index.blocks) == {"r1", "r2", "r3"}


def test_index_matches_figure2(sample_table, sample_rules):
    """The sample index has 3 / 3 / 2 groups in blocks B1 / B2 / B3."""
    index = MLNIndex.build(sample_table, sample_rules)
    assert len(index.block("r1").groups) == 3
    assert len(index.block("r2").groups) == 3
    assert len(index.block("r3").groups) == 2


def test_cfd_block_skips_uncovered_tuples(sample_table, sample_rules):
    index = MLNIndex.build(sample_table, sample_rules)
    covered_tids = sorted(
        tid for group in index.block("r3").group_list for tid in group.tids
    )
    assert covered_tids == [2, 3, 4, 5]


def test_group_representative_is_highest_support(sample_table, sample_rules):
    index = MLNIndex.build(sample_table, sample_rules)
    group = index.block("r1").groups[("BOAZ",)]
    representative = group.representative()
    assert representative.result_values == ("AL",)
    assert representative.support == 2


def test_piece_assignment_and_values(sample_table, sample_rules):
    index = MLNIndex.build(sample_table, sample_rules)
    piece = index.block("r1").groups[("DOTH",)].gammas[0]
    assert piece.as_assignment() == {"CT": "DOTH", "ST": "AL"}
    assert piece.values == ("DOTH", "AL")
    assert piece.key == (("DOTH",), ("AL",))


def test_block_lookup_helpers(sample_table, sample_rules):
    block = MLNIndex.build(sample_table, sample_rules).block("r1")
    assert block.group_of_tid(1).key == ("DOTH",)
    assert block.piece_of_tid(1).reason_values == ("DOTH",)
    assert block.group_of_tid(999) is None
    assert block.piece_of_tid(999) is None


def test_block_attributes_order(sample_rules):
    block_rule = sample_rules[2]
    assert block_rule.reason_attributes + block_rule.result_attributes == [
        "HN",
        "CT",
        "PN",
    ]


def test_group_add_piece_merges_same_key():
    rule = FunctionalDependency(["A"], ["B"])
    group = Group(("x",))
    group.add_piece(DataPiece(rule, ("x",), ("y",), tids=[0]))
    group.add_piece(DataPiece(rule, ("x",), ("y",), tids=[1]))
    assert group.size == 1
    assert group.tuple_count == 2


def test_empty_group_representative_raises():
    with pytest.raises(ValueError):
        Group(("x",)).representative()


def test_index_statistics(sample_table, sample_rules):
    stats = MLNIndex.build(sample_table, sample_rules).statistics()
    assert stats["r1"]["tuples"] == 6
    assert stats["r1"]["gammas"] == 4
    assert stats["r3"]["tuples"] == 4


def test_config_validation():
    with pytest.raises(ValueError):
        MLNCleanConfig(abnormal_threshold=-1)
    with pytest.raises(KeyError):
        MLNCleanConfig(distance_metric="not-a-metric")
    with pytest.raises(ValueError):
        MLNCleanConfig(fscr_exhaustive_limit=0)
    with pytest.raises(ValueError):
        MLNCleanConfig(fscr_minimality_bias=-1)


def test_config_for_dataset_thresholds():
    assert recommended_config("car").abnormal_threshold == 1
    assert recommended_config("HAI").abnormal_threshold == 10
    assert recommended_config("tpch").abnormal_threshold == 2
    assert recommended_config("hospital-sample").abnormal_threshold == 1
    overridden = recommended_config("hai", distance_metric="cosine")
    assert overridden.distance_metric == "cosine"


def test_config_for_unknown_dataset_warns():
    # the per-dataset τ table lives in the workload registry now; unknown
    # names fall back to the defaults loudly instead of silently
    with pytest.warns(UserWarning, match="no workload registered"):
        config = recommended_config("unknown")
    assert config.abnormal_threshold == 1


# ----------------------------------------------------------------------
# invariants (property-based)
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=60),
    error_rate=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=100),
)
def test_index_invariants_random_tables(rows, error_rate, seed):
    """Every tuple appears exactly once per FD block; groups key on reason values."""
    clean = Table.from_records(
        [{"K": f"k{i % 7}", "V": f"v{i % 7}", "O": str(i)} for i in range(rows)]
    )
    rule = FunctionalDependency(["K"], ["V"], name="fd")
    dirty = ErrorInjector(ErrorSpec(error_rate=error_rate, seed=seed)).inject(
        clean, [rule]
    ).dirty
    index = MLNIndex.build(dirty, [rule])
    block = index.block("fd")
    seen = []
    for key, group in block.groups.items():
        for piece in group.gammas:
            assert piece.reason_values == key or piece.key[0] == piece.reason_values
            seen.extend(piece.tids)
    assert sorted(seen) == sorted(dirty.tids)
    # support accounting is consistent
    assert sum(group.tuple_count for group in block.group_list) == len(dirty)
