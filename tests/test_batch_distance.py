"""The batch candidate-set distance API: nearest / pairwise / topk.

The load-bearing properties of the sub-quadratic distance core:

* every batch query is *bit-identical* to the brute-force scalar loop it
  replaces, for every registered metric (the unigram count filter only
  orders and lower-bounds candidates, it never approximates),
* the count filter never changes a whole cleaning run against the plain
  ordered scan, on every registered workload and every execution backend,
* there is no approximation knob: every query is exact,
* a cleaning run raises no ``DeprecationWarning``.
"""

from __future__ import annotations

import math
import random
import warnings
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MLNCleanConfig
from repro.core.pipeline import MLNClean
from repro.distance import base as distance_base, get_metric
from repro.distance.levenshtein import LevenshteinDistance
from repro.errors.injector import ErrorSpec
from repro.experiments.harness import session_for_instance
from repro.perf import DistanceEngine, build_profile, global_distance_stats
from repro.perf import engine as engine_module
from repro.perf.qgram import lower_bound
from repro.session import MLNCleanCleaner
from repro.workloads.registry import (
    available_workloads,
    get_workload_generator,
    recommended_config,
)

METRICS = ("levenshtein", "damerau", "cosine", "jaccard")

short_text = st.text(
    alphabet=st.characters(min_codepoint=48, max_codepoint=122), max_size=10
)
value_tuples = st.lists(short_text, min_size=1, max_size=3).map(tuple)


def brute_values_distance(metric, left, right):
    return sum(
        metric.distance(a, b) if a != b else 0.0 for a, b in zip(left, right)
    )


def whole_tuple_profile(values, bits):
    """A tuple's profile built in one pass over the tuple, not from parts."""

    def bit(key):
        index = bits.get(key)
        if index is None:
            index = bits[key] = len(bits)
        return 1 << index

    characters = length_mask = 0
    for position, value in enumerate(values):
        seen = {}
        for character in value:
            occurrence = seen.get(character, 0)
            seen[character] = occurrence + 1
            characters |= bit((position, character, occurrence))
        for k in range(len(value)):
            length_mask |= bit((position, "", k))
    # the mask carries the unary length bits beside the character bits
    return sum(map(len, values)), characters | length_mask, length_mask


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


#: short strings over few letters, so distances tie often
tie_text = st.text(alphabet="abé", max_size=4)


@pytest.mark.parametrize("metric_name", METRICS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_pairwise_equals_brute_force(metric_name, data):
    metric = get_metric(metric_name)
    width = data.draw(st.integers(min_value=1, max_value=3))
    text = data.draw(st.sampled_from([short_text, tie_text]))
    pool = data.draw(
        st.lists(
            st.lists(text, min_size=width, max_size=width).map(tuple),
            min_size=1,
            max_size=6,
        )
    )
    # drawing items from a small pool forces duplicates (distance 0 ties)
    items = data.draw(st.lists(st.sampled_from(pool), max_size=16))
    engine = DistanceEngine(metric)
    results = engine.pairwise(items)
    assert len(results) == len(items)
    for i, (position, distance) in enumerate(results):
        others = [item for j, item in enumerate(items) if j != i]
        expected_position, expected = brute_nearest(metric, items[i], others)
        if expected_position is not None and expected_position >= i:
            expected_position += 1  # re-map into the full list
        assert distance == expected
        # brute_nearest keeps the first of equal minima: the smallest position
        assert position == expected_position


def test_pairwise_tie_goes_to_the_smallest_position_whatever_the_bounds():
    # ("abcd",) and ("ba",) are both 2 from ("ab",), but ("ba",) has the
    # smaller bound (0 against 2), so the walk reaches it first
    engine = DistanceEngine(get_metric("levenshtein"))
    items = [("ab",), ("abcd",), ("ba",)]
    keys, shift = engine._order(engine.prepare(items[1:]), engine._profiles_of(items[:1])[0])
    assert sorted(key >> shift for key in keys) == [0, 2]
    assert engine.pairwise(items)[0] == (1, 2.0)


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


# ----------------------------------------------------------------------
# unigram lower bound soundness
# ----------------------------------------------------------------------
@given(left=short_text, right=short_text)
@settings(max_examples=150, deadline=None)
def test_qgram_lower_bound_never_exceeds_levenshtein(left, right):
    metric = get_metric("levenshtein")
    bits: dict = {}
    bound = lower_bound(
        build_profile(0, left, bits),
        build_profile(0, right, bits),
        metric.qgram_edit_ops,
    )
    assert bound <= metric.distance(left, right)


@pytest.mark.parametrize("metric_name", ["levenshtein", "damerau"])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_inline_bound_equals_scalar_lower_bound(metric_name, data):
    # the batch loop rewrites ceil(missing / ops) > bound as
    # missing > bound * ops; it must still give qgram.lower_bound's value
    metric = get_metric(metric_name)
    width = data.draw(st.integers(min_value=1, max_value=3))
    rows = st.lists(short_text, min_size=width, max_size=width).map(tuple)
    query = data.draw(rows)
    candidates = data.draw(st.lists(rows, min_size=1, max_size=8))
    engine = DistanceEngine(metric)
    prepared = engine.prepare(candidates)
    keys, shift = engine._order(prepared, engine._profiles_of([query])[0])
    bounds = {key & ((1 << shift) - 1): key >> shift for key in keys}
    bits: dict = {}
    query_profile = whole_tuple_profile(query, bits)
    expected = [
        lower_bound(query_profile, whole_tuple_profile(candidate, bits), metric.qgram_edit_ops)
        for candidate in candidates
    ]
    assert [bounds[position] for position in range(len(candidates))] == expected


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_unit_ops_bound_is_the_merged_mask_term(data):
    # S_p <= min_len_p, so Σ max_len_p - S >= Σ |Δlen_p|: at one edit
    # operation per unigram the bound is total_q + total_c - popcount of the
    # AND of the merged masks, and the ops-1 loop equals the general loop
    metric = get_metric("levenshtein")
    width = data.draw(st.integers(min_value=1, max_value=3))
    text = st.one_of(tie_text, short_text)
    rows = st.lists(text, min_size=width, max_size=width).map(tuple)
    query = data.draw(rows)
    candidates = data.draw(st.lists(rows, min_size=1, max_size=8))
    engine = DistanceEngine(metric)
    query_profile, *profiles = engine._profiles_of([query, *candidates])
    shift, first = (len(candidates) + 3).bit_length(), 3
    keys = engine._bound_keys(query_profile, profiles, shift, first)
    assert keys == DistanceEngine._scaled_bound_keys(
        query_profile, profiles, shift, first, 1
    )
    assert [key & ((1 << shift) - 1) for key in keys] == list(
        range(first, first + len(candidates))
    )
    assert [key >> shift for key in keys] == [
        lower_bound(query_profile, profile, 1) for profile in profiles
    ]
    for key, candidate in zip(keys, candidates):
        shared = sum(
            sum((Counter(a) & Counter(b)).values()) for a, b in zip(query, candidate)
        )
        length_term = sum(abs(len(a) - len(b)) for a, b in zip(query, candidate))
        max_term = sum(max(len(a), len(b)) for a, b in zip(query, candidate)) - shared
        assert key >> shift == max_term >= length_term


@pytest.mark.parametrize("limit", [None, 10], ids=["no-flush", "limit-10"])
@pytest.mark.parametrize("metric_name", ["levenshtein", "damerau"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_composed_profiles_bound_like_whole_tuple_profiles(metric_name, limit, data):
    # profiles composed from cached (position, value) parts, across
    # batches that share parts and, with a small cache limit, across
    # flushes of the parts, the tuple profiles and their bit numbering
    metric = get_metric(metric_name)
    ops = metric.qgram_edit_ops
    width = data.draw(st.integers(min_value=1, max_value=3))
    cells = data.draw(st.lists(tie_text, min_size=1, max_size=6))
    rows = st.lists(st.sampled_from(cells), min_size=width, max_size=width).map(tuple)
    engine = DistanceEngine(metric)
    with mock.patch.object(
        engine_module, "_DERIVED_CACHE_LIMIT", limit or engine_module._DERIVED_CACHE_LIMIT
    ):
        for _ in range(4):
            candidates = data.draw(st.lists(rows, min_size=1, max_size=6))
            prepared = engine.prepare(candidates)
            engine.prepare(data.draw(st.lists(rows, max_size=4)))
            query = data.draw(rows)
            # the query re-profiles the set if the numbering was flushed
            assert engine.nearest(query, prepared) == brute_nearest(metric, query, candidates)
            assert prepared.generation == engine._generation
            query_profile, profiles = engine._profiles[query], prepared.profiles
            bits: dict = {}
            expected_query = whole_tuple_profile(query, bits)
            for candidate, profile in zip(candidates, profiles):
                expected = whole_tuple_profile(candidate, bits)
                assert profile[0] == expected[0]
                assert lower_bound(query_profile, profile, ops) == lower_bound(
                    expected_query, expected, ops
                )


# ----------------------------------------------------------------------
# the count filter is exact, end to end
# ----------------------------------------------------------------------
class UnfilteredLevenshtein(LevenshteinDistance):
    """Levenshtein without a gram bound: batch queries scan in input order."""

    qgram_edit_ops = None


@pytest.mark.parametrize("workload_name", available_workloads())
@pytest.mark.parametrize("backend", ["batch", "distributed", "streaming"])
def test_count_filter_never_changes_a_run_on_every_workload(
    workload_name, backend, monkeypatch
):
    """Whole cleaning runs are byte-identical with and without the filter."""
    from dataclasses import replace

    monkeypatch.setitem(distance_base._REGISTRY, "unfiltered", UnfilteredLevenshtein)
    instance = small_instance(workload_name, tuples=60)
    base = recommended_config(instance.name)
    reports, filtered = {}, {}
    for metric in ("levenshtein", "unfiltered"):
        config = replace(base, distance_metric=metric)
        before = global_distance_stats()
        if backend == "streaming":
            from repro.streaming import DeltaBatch, StreamingMLNClean

            cleaner = StreamingMLNClean(
                instance.rules, schema=instance.dirty.attributes, config=config
            )
            cleaner.apply_batch(DeltaBatch.from_table(instance.dirty))
            reports[metric] = cleaner.cleaned
        else:
            options = {"workers": 2} if backend == "distributed" else {}
            cleaner = MLNCleanCleaner(backend, **options)
            session = session_for_instance(instance, cleaner, config)
            reports[metric] = session.run().cleaned
        filtered[metric] = global_distance_stats().diff(before).qgram_filtered
    # the filter did prune on this run, and the plain scan never does
    assert filtered["levenshtein"] > 0 and filtered["unfiltered"] == 0
    assert tables_equal(reports["levenshtein"], reports["unfiltered"])


# ----------------------------------------------------------------------
# no approximation knobs
# ----------------------------------------------------------------------
def test_pruning_knobs_are_fingerprint_covered():
    # the removed pruning knobs can no longer reach a run, so they cannot
    # make two differently-pruned sessions share one fingerprint: the
    # payload names none of them and passing one fails loudly
    identity = MLNCleanConfig().identity_dict()
    assert "qgram_size" not in identity
    for removed in ("pruning_topk", "max_candidates"):
        assert removed not in identity
        with pytest.raises(TypeError, match=removed):
            MLNCleanConfig(**{removed: 3})
        with pytest.raises(TypeError, match=removed):
            DistanceEngine(get_metric("levenshtein"), **{removed: 3})


# ----------------------------------------------------------------------
# no deprecation warnings
# ----------------------------------------------------------------------
def test_pipeline_runs_free_of_deprecation_warnings(sample_table, sample_rules):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        MLNClean(config=MLNCleanConfig()).clean(sample_table, sample_rules)


# ----------------------------------------------------------------------
# profile-cache flushes keep every batch under one bit numbering
# ----------------------------------------------------------------------
def test_batch_queries_equal_brute_force_across_profile_flushes(monkeypatch):
    monkeypatch.setattr(engine_module, "_DERIVED_CACHE_LIMIT", 5)
    metric = get_metric("levenshtein")
    engine = DistanceEngine(metric)
    rng = random.Random(5)

    def row():
        return tuple("".join(rng.choices("aabé", k=rng.randint(0, 5))) for _ in range(2))

    flushes, numbered = 0, 0
    for _ in range(120):
        query, candidates = row(), [row() for _ in range(rng.randint(1, 8))]
        assert engine.nearest(query, candidates) == brute_nearest(metric, query, candidates)
        ranked = sorted(
            (brute_values_distance(metric, query, candidate), position)
            for position, candidate in enumerate(candidates)
        )[:3]
        assert engine.topk(query, candidates, 3) == [(p, v) for v, p in ranked]
        for i, (_, distance) in enumerate(engine.pairwise(candidates)):
            others = candidates[:i] + candidates[i + 1 :]
            assert distance == brute_nearest(metric, candidates[i], others)[1]
        flushes += len(engine._profile_bits) < numbered
        numbered = len(engine._profile_bits)
    assert flushes >= 3


def test_prepared_nearest_equals_brute_force_after_flushes_and_updates(monkeypatch):
    # a set prepared under one bit numbering, queried after the engine
    # flushed it (between preparing and querying, or while profiling the
    # query), and edited in place as AGP edits a merge target's entry
    monkeypatch.setattr(engine_module, "_DERIVED_CACHE_LIMIT", 6)
    metric = get_metric("levenshtein")
    engine = DistanceEngine(metric)
    rng = random.Random(11)

    def row():
        return tuple("".join(rng.choices("abcé", k=rng.randint(0, 5))) for _ in range(2))

    stale_queries = 0
    for _ in range(40):
        candidates = [row() for _ in range(rng.randint(1, 5))]
        prepared = engine.prepare(candidates)
        for _ in range(6):
            position = rng.randrange(len(candidates))
            candidates[position] = row()
            engine.update(prepared, position, candidates[position])
            if rng.random() < 0.5:
                engine.prepare([row() for _ in range(3)])  # may flush the numbering
            stale_queries += prepared.generation != engine._generation
            query = row()
            assert engine.nearest(query, prepared) == brute_nearest(metric, query, candidates)
            assert prepared.generation == engine._generation
    assert stale_queries >= 10
    # another engine's numbering differs, so it re-profiles the set too
    other = DistanceEngine(metric)
    assert prepared.generation != other._generation
    assert other.nearest(query, prepared) == brute_nearest(metric, query, candidates)
