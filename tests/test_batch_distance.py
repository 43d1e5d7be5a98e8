"""The batch candidate-set distance API: nearest / pairwise / topk.

The load-bearing properties of the sub-quadratic distance core:

* every batch query is *bit-identical* to the brute-force scalar loop it
  replaces, for every registered metric (the q-gram count filter only
  orders and lower-bounds candidates, it never approximates),
* the gram length of the count filter never changes a whole cleaning run,
  on every registered workload and every execution backend,
* the approximation knobs (``pruning_topk``, ``max_candidates``) default to
  exact semantics and validate their domains,
* the per-block q-gram indexes are maintained incrementally by the delta
  hooks, and the pipeline records the ``stage:qgram-index`` span,
* a cleaning run raises no ``DeprecationWarning``.
"""

from __future__ import annotations

import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MLNCleanConfig
from repro.core.index import MLNIndex
from repro.core.pipeline import MLNClean
from repro.distance import get_metric
from repro.errors.injector import ErrorSpec
from repro.experiments.harness import session_for_instance
from repro.perf import DistanceEngine, QGramIndex, build_profile
from repro.perf.qgram import lower_bound
from repro.workloads.registry import available_workloads, get_workload_generator

METRICS = ("levenshtein", "damerau", "cosine", "jaccard")

short_text = st.text(
    alphabet=st.characters(min_codepoint=48, max_codepoint=122), max_size=10
)
value_tuples = st.lists(short_text, min_size=1, max_size=3).map(tuple)


def brute_values_distance(metric, left, right):
    return sum(
        metric.distance(a, b) if a != b else 0.0 for a, b in zip(left, right)
    )


def brute_nearest(metric, query, candidates, cutoff=math.inf):
    best_index, best = None, math.inf
    for position, candidate in enumerate(candidates):
        value = brute_values_distance(metric, query, candidate)
        if value <= cutoff and value < best:
            best, best_index = value, position
    return best_index, best


def small_instance(name, tuples=80, error_rate=0.08, seed=13):
    workload = get_workload_generator(name, tuples=tuples, seed=7).build()
    return workload.make_instance(ErrorSpec(error_rate=error_rate, seed=seed))


def tables_equal(left, right):
    if sorted(left.tids) != sorted(right.tids):
        return False
    return all(
        left.row(tid).as_dict() == right.row(tid).as_dict() for tid in left.tids
    )


# ----------------------------------------------------------------------
# batch API ≡ brute force, for every metric
# ----------------------------------------------------------------------
@pytest.mark.parametrize("metric_name", METRICS)
@given(query=value_tuples, data=st.data())
@settings(max_examples=40, deadline=None)
def test_nearest_equals_brute_force(metric_name, query, data):
    metric = get_metric(metric_name)
    width = len(query)
    candidates = data.draw(
        st.lists(
            st.lists(short_text, min_size=width, max_size=width).map(tuple),
            max_size=8,
        )
    )
    cutoff = data.draw(st.sampled_from([math.inf, 0.0, 1.0, 2.0, 5.0]))
    engine = DistanceEngine(metric)
    position, distance = engine.nearest(query, candidates, cutoff)
    expected_position, expected = brute_nearest(metric, query, candidates, cutoff)
    assert position == expected_position
    assert distance == expected


@pytest.mark.parametrize("metric_name", METRICS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_pairwise_equals_brute_force(metric_name, data):
    metric = get_metric(metric_name)
    width = data.draw(st.integers(min_value=1, max_value=3))
    items = data.draw(
        st.lists(
            st.lists(short_text, min_size=width, max_size=width).map(tuple),
            max_size=7,
        )
    )
    engine = DistanceEngine(metric)
    results = engine.pairwise(items)
    assert len(results) == len(items)
    for i, (position, distance) in enumerate(results):
        others = [item for j, item in enumerate(items) if j != i]
        expected_position, expected = brute_nearest(metric, items[i], others)
        if expected_position is not None and expected_position >= i:
            expected_position += 1  # re-map into the full list
        assert distance == expected
        if expected_position is None:
            assert position is None
        else:
            # same minimum; the engine breaks ties toward smaller positions
            assert brute_values_distance(metric, items[i], items[position]) == expected
            assert position <= expected_position


@pytest.mark.parametrize("metric_name", METRICS)
@given(query=value_tuples, data=st.data())
@settings(max_examples=40, deadline=None)
def test_topk_equals_brute_force(metric_name, query, data):
    metric = get_metric(metric_name)
    width = len(query)
    candidates = data.draw(
        st.lists(
            st.lists(short_text, min_size=width, max_size=width).map(tuple),
            max_size=8,
        )
    )
    k = data.draw(st.integers(min_value=1, max_value=4))
    engine = DistanceEngine(metric)
    got = engine.topk(query, candidates, k)
    ranked = sorted(
        (brute_values_distance(metric, query, candidate), position)
        for position, candidate in enumerate(candidates)
    )[:k]
    assert got == [(position, value) for value, position in ranked]


@given(query=value_tuples, data=st.data())
@settings(max_examples=40, deadline=None)
def test_nearest_honours_a_block_qgram_index(query, data):
    """An explicit (possibly stale-superset) index never changes the result."""
    metric = get_metric("levenshtein")
    width = len(query)
    candidates = data.draw(
        st.lists(
            st.lists(short_text, min_size=width, max_size=width).map(tuple),
            max_size=8,
        )
    )
    extras = data.draw(
        st.lists(
            st.lists(short_text, min_size=width, max_size=width).map(tuple),
            max_size=3,
        )
    )
    index = QGramIndex(q=1)
    for candidate in candidates + extras:  # extras: stale superset is safe
        index.add(candidate)
    engine = DistanceEngine(metric)
    assert engine.nearest(query, candidates, index=index) == engine.nearest(
        query, candidates
    )


# ----------------------------------------------------------------------
# q-gram lower bound soundness
# ----------------------------------------------------------------------
@given(left=short_text, right=short_text, q=st.integers(min_value=1, max_value=3))
@settings(max_examples=150, deadline=None)
def test_qgram_lower_bound_never_exceeds_levenshtein(left, right, q):
    metric = get_metric("levenshtein")
    bound = lower_bound(
        build_profile((left,), q), build_profile((right,), q), q, metric.qgram_edit_ops
    )
    assert bound <= metric.distance(left, right)


# ----------------------------------------------------------------------
# the count filter is exact at any gram length, end to end
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload_name", available_workloads())
@pytest.mark.parametrize("backend", ["batch", "distributed", "streaming"])
def test_qgram_size_never_changes_a_run_on_every_workload(workload_name, backend):
    """Whole cleaning runs are byte-identical at q=1 (default) and q=3."""
    from dataclasses import replace

    from repro.workloads.registry import recommended_config

    instance = small_instance(workload_name, tuples=60)
    base = recommended_config(instance.name)
    reports = {}
    for q in (1, 3):
        config = replace(base, qgram_size=q)
        if backend == "streaming":
            from repro.streaming import DeltaBatch, StreamingMLNClean

            cleaner = StreamingMLNClean(
                instance.rules, schema=instance.dirty.attributes, config=config
            )
            cleaner.apply_batch(DeltaBatch.from_table(instance.dirty))
            reports[q] = cleaner.cleaned
        else:
            options = {"workers": 2} if backend == "distributed" else {}
            session = session_for_instance(
                instance, config=config, backend=backend, **options
            )
            reports[q] = session.run().cleaned
    assert tables_equal(reports[1], reports[3])


# ----------------------------------------------------------------------
# approximation knobs
# ----------------------------------------------------------------------
def test_default_knobs_are_exact():
    config = MLNCleanConfig()
    assert config.pruning_topk is None
    assert config.max_candidates is None
    engine = config.engine()
    assert engine.pruning_topk is None
    assert engine.max_candidates is None


def test_max_candidates_caps_in_input_order():
    engine = DistanceEngine(get_metric("levenshtein"), max_candidates=2)
    # the exact match sits beyond the cap, so it must not be considered
    position, distance = engine.nearest(("xx",), [("ab",), ("cd",), ("xx",)])
    assert position in (0, 1)
    assert distance > 0
    assert engine.stats.qgram_filtered >= 1


def test_pruning_topk_keeps_the_most_promising_bounds():
    engine = DistanceEngine(get_metric("levenshtein"), pruning_topk=1)
    # candidate 1 shares every unigram with the query → smallest lower bound
    position, distance = engine.nearest(("abc",), [("xyzw",), ("abcd",)])
    assert (position, distance) == (1, 1.0)
    assert engine.stats.qgram_filtered >= 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"qgram_size": 0},
        {"pruning_topk": 0},
        {"max_candidates": 0},
        {"pruning_topk": -1},
    ],
)
def test_config_validates_pruning_knobs(kwargs):
    with pytest.raises(ValueError):
        MLNCleanConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"qgram_size": 0},
        {"pruning_topk": 0},
        {"max_candidates": 0},
        {"pruning_topk": -1},
    ],
)
def test_engine_validates_pruning_knobs(kwargs):
    with pytest.raises(ValueError):
        DistanceEngine(get_metric("levenshtein"), **kwargs)


def test_pruning_knobs_are_fingerprint_covered():
    base = MLNCleanConfig()
    assert "qgram_size" in base.identity_dict()
    assert base.identity_dict() != MLNCleanConfig(pruning_topk=3).identity_dict()
    assert base.identity_dict() != MLNCleanConfig(max_candidates=9).identity_dict()


# ----------------------------------------------------------------------
# incremental q-gram index maintenance
# ----------------------------------------------------------------------
def test_block_qgram_index_tracks_adds_and_removes(sample_table, sample_rules):
    index = MLNIndex.build(sample_table, sample_rules)
    index.enable_qgram(1)
    block = index.block_list[0]
    qgram = block.qgram_index
    assert qgram is not None and len(qgram) > 0
    row = {attr: "zzzz" for attr in sample_table.attributes}
    before = len(qgram)
    piece = block.add_tuple(987654, row)
    assert piece is not None
    assert len(qgram) == before + 1
    assert qgram.profile(piece.values) is not None
    block.remove_tuple(987654, row)
    assert len(qgram) == before
    assert qgram.profile(piece.values) is None


def test_qgram_index_refcounts_duplicate_values():
    index = QGramIndex(q=2)
    index.add(("abcd",))
    index.add(("abcd",))
    index.discard(("abcd",))
    assert index.profile(("abcd",)) is not None  # still one live holder
    index.discard(("abcd",))
    assert index.profile(("abcd",)) is None


def test_pipeline_records_the_qgram_index_stage(sample_table, sample_rules):
    report = MLNClean(config=MLNCleanConfig()).clean(sample_table, sample_rules)
    assert "qgram-index" in report.timings.as_dict()


# ----------------------------------------------------------------------
# no deprecation warnings
# ----------------------------------------------------------------------
def test_pipeline_runs_free_of_deprecation_warnings(sample_table, sample_rules):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        MLNClean(config=MLNCleanConfig()).clean(sample_table, sample_rules)
