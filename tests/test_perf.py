"""The perf subsystem: distance engine, fast paths, report surfacing.

The load-bearing properties:

* a query with cutoff ``c`` measures a candidate exactly whenever its
  distance is ``≤ c`` and otherwise leaves at most a true lower bound ``> c``
  behind — this is what makes the best-so-far searches in AGP and RSC
  bit-identical to exhaustive scans,
* re-cleaning an unchanged block through a shared engine re-runs no raw
  metric evaluations (the streaming-replay regression).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.config import MLNCleanConfig
from repro.core.index import MLNIndex
from repro.core.pipeline import MLNClean
from repro.core.report import CleaningReport
from repro.core.rsc import ReliabilityScoreCleaner
from repro.dataset.sample import sample_hospital_rules, sample_hospital_table
from repro.distance import (
    CosineDistance,
    DamerauLevenshteinDistance,
    LevenshteinDistance,
)
from repro.distance.fastpath import strip_common_affixes
from repro.errors.injector import ErrorSpec
from repro.perf import DistanceEngine, DistanceStats, global_distance_stats
from repro.session import (
    CleaningRequest,
    CleaningSession,
    MLNCleanCleaner,
    get_cleaner,
)
from repro.streaming import DeltaBatch, StreamingMLNClean, TumblingWindow
from repro.workloads.registry import get_workload_generator
from test_reference_oracles import reference_levenshtein, unicode_text

short_text = st.text(
    alphabet=st.characters(min_codepoint=48, max_codepoint=122), max_size=12
)
cutoffs = st.one_of(
    st.integers(min_value=0, max_value=14).map(float),
    st.floats(min_value=0.0, max_value=14.0, allow_nan=False),
)


def tables_equal(left, right):
    if sorted(left.tids) != sorted(right.tids):
        return False
    return all(
        left.row(tid).as_dict() == right.row(tid).as_dict() for tid in left.tids
    )


def small_instance(name, tuples=90, error_rate=0.08, seed=13):
    workload = get_workload_generator(name, tuples=tuples, seed=7).build()
    return workload.make_instance(ErrorSpec(error_rate=error_rate, seed=seed))


# ----------------------------------------------------------------------
# fast paths
# ----------------------------------------------------------------------
@settings(deadline=None)
@given(unicode_text, unicode_text)
def test_affix_stripping_preserves_levenshtein(left, right):
    assert reference_levenshtein(left, right) == reference_levenshtein(
        *strip_common_affixes(left, right)
    )


@given(short_text, short_text)
def test_damerau_fastpath_matches_full_dp(left, right):
    # The routed distance (affix strip + trivial cases) must equal the naive
    # full-matrix dynamic program — the like-with-like guarantee of the
    # Table-5 ablation.
    assert DamerauLevenshteinDistance().distance(
        left, right
    ) == DamerauLevenshteinDistance._dp_distance(left, right)


@settings(deadline=None)
@given(unicode_text, unicode_text)
def test_levenshtein_fastpath_matches_full_dp(left, right):
    assert LevenshteinDistance().distance(left, right) == reference_levenshtein(
        left, right
    )


@given(short_text, short_text, cutoffs)
def test_bounded_distance_exact_iff_within_cutoff(left, right, cutoff):
    # the unigram count filter is weak on single short strings, so most
    # pairs reach the kernel's exact-or-prune evaluation instead of being
    # filtered up front
    engine = DistanceEngine(LevenshteinDistance())
    exact = LevenshteinDistance().distance(left, right)
    position, distance = engine.nearest((left,), [(right,)], cutoff)
    if exact <= cutoff:
        assert (position, distance) == (0, exact)
    else:
        assert (position, distance) == (None, math.inf)
    # a pruned pair is never served as a distance
    assert engine.nearest((left,), [(right,)]) == (0, exact)


def test_pruned_pair_is_never_served_as_a_distance():
    # equal unigram bags: the count filter cannot dismiss the pair, so the
    # kernel's early exit has to
    engine = DistanceEngine(LevenshteinDistance())
    assert engine.nearest(("abcd",), [("dcba",)], 1.0) == (None, math.inf)
    assert engine.stats.band_prunes + engine.stats.length_prunes == 1
    # a repeat of the too-tight query is pruned again, not served from cache
    assert engine.nearest(("abcd",), [("dcba",)], 1.0) == (None, math.inf)
    assert engine.stats.band_prunes + engine.stats.length_prunes == 2
    # a wider cutoff computes the exact value, which the memo then serves
    assert engine.nearest(("abcd",), [("dcba",)], 5.0) == (0, 4.0)
    assert engine.distance("abcd", "dcba") == 4.0
    assert engine.stats.cache_hits == 1


# ----------------------------------------------------------------------
# the engine: cache, interning, values_distance
# ----------------------------------------------------------------------
def test_values_distance_matches_metric_bit_for_bit():
    metric = CosineDistance()
    engine = DistanceEngine(metric)
    left = ("DOTHAN", "AL", "2567938400")
    right = ("DOTH", "AK", "2567938411")
    assert engine.values_distance(left, right) == metric.values_distance(left, right)
    # cached second ask returns the identical floats
    assert engine.values_distance(left, right) == metric.values_distance(left, right)
    assert engine.stats.cache_hits == 3


def test_values_distance_cutoff_short_circuits_exactly():
    # transpositions: distance 2 per pair, but equal unigram bags, so the
    # count filter lets the candidate through to the evaluation
    left = ("ABCD", "EFGH", "IJKL")
    right = ("BACD", "FEGH", "JIKL")
    engine = DistanceEngine(LevenshteinDistance())
    assert engine.nearest(left, [right], 6.0) == (0, 6.0)
    assert engine.stats.value_short_circuits == 0
    # the running sum passes a 1.5 cutoff on the first attribute: the
    # remaining two are never evaluated
    engine = DistanceEngine(LevenshteinDistance())
    assert engine.nearest(left, [right], 1.5) == (None, math.inf)
    assert engine.stats.value_short_circuits == 1
    assert engine.stats.calls == 1
    # mismatched tuple lengths are rejected like the metric rejects them
    with pytest.raises(ValueError):
        engine.values_distance(("a",), ("a", "b"))
    with pytest.raises(ValueError):
        engine.nearest(("a",), [("a", "b")])
    # mixed-arity candidates are rejected when the set is prepared, even when
    # the bound would filter the bad one before any evaluation
    with pytest.raises(ValueError):
        engine.nearest(("a",), [("a",), ("b", "c")])
    with pytest.raises(ValueError):
        engine.pairwise([("a",), ("b", "c")])


def test_cache_hit_statistics_and_symmetry():
    engine = DistanceEngine(LevenshteinDistance())
    assert engine.distance("DOTHAN", "BOAZ") == engine.distance("BOAZ", "DOTHAN")
    assert engine.stats.calls == 2
    assert engine.stats.cache_hits == 1  # symmetric pair served from cache
    assert engine.stats.raw_evaluations == 1
    assert 0.0 < engine.stats.hit_rate < 1.0


def test_interning_returns_canonical_instances():
    engine = DistanceEngine(LevenshteinDistance())
    first = engine.intern("DOTHAN")
    second = engine.intern("DOTH" + "AN")
    assert first is second
    assert engine.intern_values(["A", "B"]) == ("A", "B")


def test_stats_iadd_and_diff():
    stats = DistanceStats(calls=10, cache_hits=4)
    other = DistanceStats(calls=5, cache_hits=1)
    merged = DistanceStats().iadd(stats).iadd(other)
    assert (merged.calls, merged.cache_hits) == (15, 5)
    assert (stats.calls, other.calls) == (10, 5)  # the operands are untouched
    assert merged.diff(other).calls == 10


# ----------------------------------------------------------------------
# report surfacing
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "cleaner, options, detectors",
    [
        ("mlnclean", {"backend": "batch"}, None),
        ("mlnclean", {"backend": "batch"}, ["violation"]),
        ("mlnclean", {"backend": "distributed", "workers": 2}, None),
        ("mlnclean", {"backend": "streaming", "batch_size": 12}, None),
        ("mlnclean", {"backend": "streaming", "batch_size": 12}, ["violation"]),
        ("holoclean", {}, None),
        ("minimal-repair", {}, None),
        ("factor-graph", {}, None),
    ],
    ids=[
        "batch",
        "batch-violation",
        "distributed",
        "streaming",
        "streaming-violation",
        "holoclean",
        "minimal-repair",
        "factor-graph",
    ],
)
def test_report_details_are_one_json_safe_dict(cleaner, options, detectors):
    instance = small_instance("hospital-sample", tuples=48)
    session = CleaningSession(
        rules=instance.rules,
        config=MLNCleanConfig(abnormal_threshold=1),
        cleaner=get_cleaner(cleaner, **options),
        table=instance.dirty,
        ground_truth=instance.ground_truth,
        detectors=detectors,
    )
    before = global_distance_stats()
    report = session.run()
    counters = global_distance_stats().diff(before).as_dict()
    assert isinstance(report.details, dict)
    text = json.dumps(report.to_json_dict())
    assert CleaningReport.from_json_dict(json.loads(text)).details == report.details
    if cleaner == "mlnclean":
        # the run's one engine did every distance call of the run
        assert report.details["distance"] == counters
        assert counters["calls"] > 0
        if options["backend"] == "streaming":
            engine = session.cleaner.engine.engine
            assert report.details["distance"] == engine.stats.as_dict()
    if detectors is not None:
        assert report.details["detection"]["count"] > 0


# ----------------------------------------------------------------------
# RSC invariant hoist + persistent streaming cache (regression)
# ----------------------------------------------------------------------
def test_recleaning_unchanged_block_runs_no_raw_evaluations(sample_table, sample_rules):
    config = MLNCleanConfig(abnormal_threshold=1)
    engine = DistanceEngine.from_config(config)
    cleaner = ReliabilityScoreCleaner(config, engine=engine)
    first_blocks = MLNIndex.build(sample_table, sample_rules).block_list
    cleaner.clean_index(first_blocks)
    raw_after_first = engine.stats.raw_evaluations
    assert raw_after_first > 0
    # the streaming-replay shape: the same (unchanged) block is re-cleaned —
    # every γ-pair distance must come back from the shared engine's cache
    second_blocks = MLNIndex.build(sample_table, sample_rules).block_list
    cleaner.clean_index(second_blocks)
    assert engine.stats.raw_evaluations == raw_after_first


def test_streaming_engine_persists_across_batches_and_stays_equivalent():
    instance = small_instance("hospital-sample", tuples=60)
    config = MLNCleanConfig(abnormal_threshold=1)
    batch_report = MLNClean(config).clean(instance.dirty, instance.rules)

    engine = StreamingMLNClean(instance.rules, schema=instance.dirty.attributes, config=config)
    assert engine.engine.cache_size() == 0
    for start in range(0, len(instance.dirty.tids), 12):
        tids = instance.dirty.tids[start : start + 12]
        engine.apply_batch(DeltaBatch.from_table(instance.dirty.subset(tids)))
    assert tables_equal(engine.cleaned, batch_report.cleaned)
    stats = engine.engine.stats
    assert stats.cache_hits > 0  # the cache carried over between batches
    assert engine.report().details["distance"] == stats.as_dict()


def test_forced_memo_flushes_keep_streaming_output_exact(monkeypatch):
    generator = get_workload_generator("hospital-sample", tuples=36, seed=7)
    instance = generator.build().make_instance(ErrorSpec(error_rate=0.1, seed=5))

    def stream():
        engine = StreamingMLNClean(
            instance.rules,
            schema=instance.dirty.attributes,
            config=MLNCleanConfig(abnormal_threshold=1),
            window=TumblingWindow(size=12),
        )
        sizes = []
        for start in range(0, len(instance.dirty.tids), 12):
            tids = instance.dirty.tids[start : start + 12]
            engine.apply_batch(DeltaBatch.from_table(instance.dirty.subset(tids)))
            sizes.append(engine.engine.cache_size())
        return engine.cleaned, sizes

    expected, unbounded_sizes = stream()
    assert max(unbounded_sizes) > 8  # the patched run really has to flush
    monkeypatch.setattr("repro.perf.engine._DERIVED_CACHE_LIMIT", 8)
    cleaned, sizes = stream()
    assert tables_equal(cleaned, expected)
    assert max(sizes) <= 8


# ----------------------------------------------------------------------
# config knobs
# ----------------------------------------------------------------------
def test_config_engine_honours_cache_knobs():
    # the pair memo is unconditional and has no setting left
    engine = MLNCleanConfig().engine()
    engine.distance("DOTHAN", "BOAZ")
    engine.distance("BOAZ", "DOTHAN")
    assert engine.stats.cache_hits == 1
    with pytest.raises(TypeError, match="track_values"):
        MLNCleanConfig().engine(track_values=True)
    # every removed config field fails loudly, naming itself, and is absent
    # from the fingerprint payload
    assert "qgram_size" not in MLNCleanConfig().identity_dict()
    for removed in (
        "distance_cache",
        "distance_cache_entries",
        "distance_kernel",
        "qgram_size",
        "pruning_topk",
        "max_candidates",
        "instrument",
    ):
        with pytest.raises(TypeError, match=removed):
            MLNCleanConfig(**{removed: None})
    # so does the removed process-parallel Stage-I option, at every entry point
    with pytest.raises(TypeError, match="parallelism"):
        MLNClean(parallelism=2)
    with pytest.raises(TypeError, match="parallelism"):
        MLNCleanCleaner("batch", parallelism=2)
    # and the removed custom stage-order option
    with pytest.raises(TypeError, match="stages"):
        MLNClean(stages=["agp", "rsc"])
    with pytest.raises(TypeError, match="stages"):
        CleaningSession(stages=["agp", "rsc"])
    with pytest.raises(TypeError, match="stages"):
        CleaningRequest(
            sample_hospital_table(), sample_hospital_rules(), stages=["agp", "rsc"]
        )


@settings(deadline=None)
@given(short_text, short_text)
def test_engine_distance_equals_metric_distance(left, right):
    metric = LevenshteinDistance()
    engine = DistanceEngine(metric)
    assert engine.distance(left, right) == metric.distance(left, right)
    assert engine.distance(left, right) == metric.distance(left, right)


def test_bounded_distance_with_infinite_cutoff_is_exact():
    engine = DistanceEngine(LevenshteinDistance())
    assert engine.nearest(("kitten",), [("sitting",)], math.inf) == (0, 3.0)
    assert engine.pairwise([("kitten",), ("sitting",)]) == [(1, 3.0), (0, 3.0)]
    assert engine.stats.raw_evaluations == 1  # the pair is measured once


def test_cleaning_imports_no_numpy():
    """The core is zero-dependency: a whole cleaning run never loads numpy."""
    script = (
        "import sys\n"
        "from repro import MLNClean, MLNCleanConfig\n"
        "from repro.dataset.sample import sample_hospital_rules, sample_hospital_table\n"
        "MLNClean(MLNCleanConfig()).clean(sample_hospital_table(), sample_hospital_rules())\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    source_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (source_root, env.get("PYTHONPATH")) if path
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
