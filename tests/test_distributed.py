"""Unit and property tests for the distributed MLNClean components."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MLNCleanConfig
from repro.dataset.table import Table
from repro.distributed.driver import DistributedMLNClean
from repro.distributed.executor import SimulatedCluster
from repro.distributed.partition import DataPartitioner, hash_partition
from repro.distributed.weights import GlobalWeightStore, fuse_weights
from repro.workloads.registry import recommended_config


def toy_table(rows: int = 40) -> Table:
    return Table.from_records(
        [{"K": f"key-{i % 5}", "V": f"val-{i % 5}", "N": str(i)} for i in range(rows)]
    )


# ----------------------------------------------------------------------
# partitioner (Algorithm 3)
# ----------------------------------------------------------------------
def test_partition_respects_capacity():
    table = toy_table(41)
    result = DataPartitioner(parts=4, seed=1).partition(table)
    assert len(result.partitions) == 4
    assert result.capacity == 11
    assert all(size <= result.capacity for size in result.sizes)


def test_partition_covers_every_tuple_exactly_once():
    table = toy_table(37)
    result = DataPartitioner(parts=3, seed=2).partition(table)
    all_tids = [tid for part in result.partitions for tid in part.member_tids]
    assert sorted(all_tids) == table.tids


def test_partition_tables_preserve_tids():
    table = toy_table(20)
    result = DataPartitioner(parts=2, seed=3).partition(table)
    tables = result.tables(table)
    assert sum(len(t) for t in tables) == len(table)
    for part_table in tables:
        for row in part_table:
            assert row.as_dict() == table.row(row.tid).as_dict()


def test_partition_single_part_and_empty():
    table = toy_table(5)
    single = DataPartitioner(parts=1).partition(table)
    assert single.sizes == [5]
    more_parts_than_rows = DataPartitioner(parts=10).partition(toy_table(3))
    assert len(more_parts_than_rows.partitions) == 3
    empty = DataPartitioner(parts=3).partition(Table.from_records([{"A": "x"}]).subset([]))
    assert empty.partitions == []


def test_partition_validation():
    with pytest.raises(ValueError):
        DataPartitioner(parts=0)


def test_hash_partition_round_robin():
    table = toy_table(10)
    result = hash_partition(table, 3)
    assert sorted(tid for p in result.partitions for tid in p.member_tids) == table.tids
    assert max(result.sizes) - min(result.sizes) <= 1
    with pytest.raises(ValueError):
        hash_partition(table, 0)


@settings(max_examples=20, deadline=None)
@given(rows=st.integers(min_value=1, max_value=60), parts=st.integers(min_value=1, max_value=8))
def test_partition_invariants(rows, parts):
    table = toy_table(rows)
    result = DataPartitioner(parts=parts, seed=7).partition(table)
    collected = sorted(tid for p in result.partitions for tid in p.member_tids)
    assert collected == table.tids
    assert all(size <= result.capacity + 1 for size in result.sizes)
    assert len(result.partitions) == min(parts, rows)


# ----------------------------------------------------------------------
# weight fusion (Eq. 6)
# ----------------------------------------------------------------------
def test_global_weight_store_weighted_average():
    store = GlobalWeightStore()
    key = ("r1", ("BOAZ",), ("AL",))
    store.record(key, support=3, weight=1.0)
    store.record(key, support=1, weight=5.0)
    assert store.weight(key) == pytest.approx((3 * 1.0 + 1 * 5.0) / 4)
    assert store.support(key) == 4
    assert store.weight(("r1", ("X",), ("Y",))) == 0.0


def test_fuse_weights_across_partitions():
    key = ("r1", ("A",), ("B",))
    store = fuse_weights(
        [{key: (2, 1.0)}, {key: (2, 3.0)}, {("r1", ("C",), ("D",)): (1, 7.0)}]
    )
    assert store.weight(key) == pytest.approx(2.0)
    assert len(store) == 2


def test_weight_store_rejects_negative_support():
    with pytest.raises(ValueError):
        GlobalWeightStore().record(("r", (), ()), support=-1, weight=1.0)


# ----------------------------------------------------------------------
# simulated cluster
# ----------------------------------------------------------------------
def test_cluster_map_and_timings():
    cluster = SimulatedCluster(workers=2)
    assert cluster.map(lambda x: x * x, [1, 2, 3, 4]) == [1, 4, 9, 16]
    assert cluster.map(lambda x: -x, [5]) == [-5]
    assert cluster.makespan_seconds <= cluster.sequential_seconds + 1e-9
    with pytest.raises(ValueError):
        SimulatedCluster(workers=0)


# ----------------------------------------------------------------------
# distributed driver
# ----------------------------------------------------------------------
def test_distributed_single_worker_matches_standalone(sample_table, sample_rules, sample_ground_truth):
    from repro.core.pipeline import MLNClean

    config = MLNCleanConfig(abnormal_threshold=1)
    standalone = MLNClean(config).clean(sample_table, sample_rules, sample_ground_truth)
    distributed = DistributedMLNClean(workers=1, config=config).clean(
        sample_table, sample_rules, sample_ground_truth
    )
    assert distributed.repaired.equals(standalone.repaired)
    assert distributed.f1 == pytest.approx(standalone.accuracy.f1)


def test_distributed_on_workload(hai_instance):
    config = recommended_config("hai")
    report = DistributedMLNClean(workers=2, config=config).clean(
        hai_instance.dirty, hai_instance.rules, hai_instance.ground_truth
    )
    details = report.details
    assert report.accuracy is not None
    assert report.f1 > 0.4
    assert details["workers"] == 2
    assert sum(details["partitions"]) == len(hai_instance.dirty)
    assert report.runtime > 0
    assert details["sim_runtime_s"] == report.runtime
    assert details["sequential_s"] >= report.runtime
    assert details["speedup"] >= 1.0


def test_distributed_requires_rules_and_workers(sample_table, sample_rules):
    with pytest.raises(ValueError):
        DistributedMLNClean(workers=0)
    with pytest.raises(ValueError):
        DistributedMLNClean(workers=2).clean(sample_table, [])


def test_distributed_dedup_disabled(sample_table, sample_rules):
    config = MLNCleanConfig(abnormal_threshold=1, remove_duplicates=False)
    report = DistributedMLNClean(workers=2, config=config).clean(sample_table, sample_rules)
    assert len(report.cleaned) == len(sample_table)


def test_distributed_keeps_input_unchanged(sample_table, sample_rules):
    snapshot = sample_table.copy()
    DistributedMLNClean(workers=2, config=MLNCleanConfig(abnormal_threshold=1)).clean(
        sample_table, sample_rules
    )
    assert sample_table.equals(snapshot)
