"""The shared fast-path distance engine.

Every stage of MLNClean bottoms out in pairwise string distances — AGP is
``O(|B| × |Ga| × |G − Ga|)`` and RSC's reliability score takes a min over all
γ-pairs of a group — and the same value pairs recur across blocks, groups,
micro-batches and partitions.  :class:`DistanceEngine` wraps any registered
:class:`~repro.distance.base.DistanceMetric` with

* a **symmetric pair-memo cache** of exact distances with string interning
  and hit/miss statistics (a distance between immutable strings never
  changes, so caching cannot alter any cleaning decision; like every memo
  the engine owns it is flushed wholesale at ``_DERIVED_CACHE_LIMIT``
  entries, which bounds a long-lived streaming engine's memory),
* **algorithmic fast paths** for the edit-distance family: common
  prefix/suffix stripping, the length-difference lower bound, and the
  metric's bounded form — for Levenshtein the bit-parallel kernel of
  :mod:`repro.distance.fastpath`, which exits early once the cutoff is
  provably exceeded,
* a **batch candidate-set API** (:meth:`~DistanceEngine.nearest`,
  :meth:`~DistanceEngine.pairwise`, :meth:`~DistanceEngine.topk`) that
  visits candidates in ascending order of a positional unigram lower bound
  (:mod:`repro.perf.qgram`: for Levenshtein one popcount of the AND of
  two cached profile masks, which carry each attribute's length in unary
  beside its characters) and scans them best-so-far with cutoff-accumulating
  tuple distances, which stop as soon as the per-attribute running sum
  exceeds the cutoff.  A tuple's profile is composed from cached per-value
  parts, one per ``(position, value)``; the parts, the tuple profiles and
  the bit numbering they share flush together.  A candidate set that many
  queries share (AGP's representatives over one block pass) is prepared
  once into a :class:`CandidateSet`; a query then profiles only itself and
  bounds every candidate in one loop into a heap of ``(bound << shift) |
  position`` keys, popped until a bound exceeds the running cutoff.
  :meth:`~DistanceEngine.pairwise` bounds each unordered pair once, sorts
  the pairs by bound and evaluates a pair once for both of its items.
* **batched rows** (:meth:`~DistanceEngine.distance_rows`) for the
  Algorithm-3 partitioner, which needs every distinct value of an
  attribute against a few centroid values: the metric measures them all in
  one run (for Levenshtein the packed multi-pattern kernel of
  :mod:`repro.distance.fastpath`, one pass per centroid), and the engine
  stores the pairs in its memo and counts them as ``row_pairs``.

Every candidate is settled by one scalar exact-or-prune evaluation: it
returns the **exact** distance whenever that is ``≤`` the running cutoff,
otherwise *some* value ``> cutoff`` (a valid lower bound).  Best-so-far
searches therefore get bit-identical results to exhaustive evaluation:
candidates at or below the running best are measured exactly (including
ties), candidates that cannot win are skipped.

Statistics are strictly **engine-local** on the hot path: every counter
increment touches only ``self.stats``, so concurrent engines (the service's
shard executor threads) never interleave read-modify-write cycles on shared
counters.  The process-wide view of :func:`global_distance_stats` is
*derived* under a lock — the folded counters of retired engines plus the
live counters of every engine still alive (a weakref registry folds an
engine's stats in when it is garbage collected) — so the benchmark suite
can still report distance-call counts and cache hit rates per figure
without reaching into every engine instance.
"""

from __future__ import annotations

import itertools
import math
import threading
import weakref
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields
from heapq import heapify, heappop
from typing import Optional

from repro.distance.base import DistanceMetric
from repro.distance.fastpath import strip_common_affixes, trivial_edit_distance
from repro.perf.qgram import build_profile, popcount as _popcount

#: flush bound of every per-engine memo (exact pairs, string and value-tuple
#: interning, unigram profiles and their per-value parts); each is a pure
#: function of its key (profiles together with the bit numbering they flush
#: with), so a wholesale flush can never change a result — it only costs
#: recomputation
_DERIVED_CACHE_LIMIT = 1 << 16

#: process-wide source of bit-numbering generations, so a candidate set
#: prepared by one engine is merely stale, never valid, in another
_GENERATIONS = itertools.count()


@dataclass
class DistanceStats:
    """Counters of one engine (or of the whole process, for the global copy)."""

    #: pair-distance requests (exact and bounded, incl. those from
    #: value-tuple distances)
    calls: int = 0
    #: requests answered from the exact-pair cache
    cache_hits: int = 0
    #: requests settled without the metric: equal strings or one side empty
    #: after affix stripping
    trivial: int = 0
    #: runs of the wrapped metric that settled a distance exactly (the raw
    #: evaluations the engine exists to avoid)
    raw_evaluations: int = 0
    #: bounded requests refused by the length-difference lower bound
    length_prunes: int = 0
    #: bounded requests abandoned by the kernel's early exit
    band_prunes: int = 0
    #: value-tuple distance requests
    value_calls: int = 0
    #: value-tuple requests short-circuited before the last attribute
    value_short_circuits: int = 0
    #: batch candidate-set queries (``nearest`` / ``pairwise`` / ``topk``)
    batch_queries: int = 0
    #: candidates considered by batch queries (before any filtering)
    qgram_candidates: int = 0
    #: candidates batch queries never evaluated exactly: unigram lower bound
    #: above the running cutoff
    qgram_filtered: int = 0
    #: pairs settled by batched rows (:meth:`DistanceEngine.distance_rows`),
    #: which are not among ``calls``
    row_pairs: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of pair requests answered without any computation."""
        if self.calls == 0:
            return 0.0
        return self.cache_hits / self.calls

    def iadd(self, other: "DistanceStats") -> "DistanceStats":
        """In-place add (keeps the object identity the live registry holds)."""
        for field in fields(DistanceStats):
            setattr(
                self,
                field.name,
                getattr(self, field.name) + getattr(other, field.name),
            )
        return self

    def zero(self) -> None:
        """In-place reset of every counter."""
        for field in fields(DistanceStats):
            setattr(self, field.name, 0)

    def diff(self, earlier: "DistanceStats") -> "DistanceStats":
        """The counter deltas since an ``earlier`` snapshot."""
        delta = DistanceStats()
        for field in fields(DistanceStats):
            setattr(
                delta,
                field.name,
                getattr(self, field.name) - getattr(earlier, field.name),
            )
        return delta

    def as_dict(self) -> dict:
        out = {field.name: getattr(self, field.name) for field in fields(DistanceStats)}
        out["hit_rate"] = round(self.hit_rate, 4)
        return out


# ----------------------------------------------------------------------
# the derived process-wide accumulator
#
# Engines only ever touch their own ``self.stats`` (single-threaded by
# construction: one cleaning run / one shard uses one engine at a time), so
# the hot path needs no lock and no shared writes.  The global view is
# computed on demand under ``_ACCUM_LOCK``:
#
#     totals = retired + Σ(live engines) − reset offset
#
# where *retired* accumulates the stats of engines as they are garbage
# collected (the weakref callback fires while holding nothing else) and the
# *reset offset* is the snapshot taken by ``reset_global_distance_stats``
# — counters stay monotone underneath, resets are a subtraction.
# ----------------------------------------------------------------------
_ACCUM_LOCK = threading.Lock()
#: folded counters of engines that were garbage collected
_RETIRED = DistanceStats()
#: snapshot subtracted from the raw totals (what "reset" means here)
_RESET_OFFSET = DistanceStats()
#: weakref(engine) → its (never rebound) stats object
_LIVE: "dict[weakref.ref, DistanceStats]" = {}


def _retire_engine(ref: "weakref.ref") -> None:
    """Weakref callback: fold a dying engine's counters into the retired base.

    Pops the registry entry and folds under one lock acquisition, so a
    concurrent :func:`global_distance_stats` never sees the engine twice or
    not at all.
    """
    with _ACCUM_LOCK:
        stats = _LIVE.pop(ref, None)
        if stats is not None:
            _RETIRED.iadd(stats)


def _register_engine(engine: "DistanceEngine") -> None:
    with _ACCUM_LOCK:
        _LIVE[weakref.ref(engine, _retire_engine)] = engine.stats


def _raw_totals() -> DistanceStats:
    """Retired + live counters; the caller holds ``_ACCUM_LOCK``."""
    totals = DistanceStats().iadd(_RETIRED)
    for stats in _LIVE.values():
        totals.iadd(stats)
    return totals


def global_distance_stats() -> DistanceStats:
    """A snapshot of the process-wide distance counters.

    Derived from engine-local counters under a lock (see the module
    docstring), so concurrent engines on different threads cannot lose
    updates — each one increments only its own stats object.
    """
    with _ACCUM_LOCK:
        return _raw_totals().diff(_RESET_OFFSET)


def reset_global_distance_stats() -> None:
    """Zero the process-wide *view* (test/benchmark isolation).

    Implemented as an offset: the underlying per-engine counters keep
    counting monotonically (live engines are not touched, so nothing races
    with in-flight work); only the baseline the snapshot subtracts moves.
    """
    with _ACCUM_LOCK:
        _RESET_OFFSET.zero()
        _RESET_OFFSET.iadd(_raw_totals())


class CandidateSet:
    """Interned candidate tuples and their ``(total, mask, length_mask)`` profiles.

    Built by :meth:`DistanceEngine.prepare`, edited by
    :meth:`DistanceEngine.update` and accepted by ``nearest`` / ``topk``.
    Masks mean nothing under another bit numbering, so the profiles carry
    the ``generation`` of the numbering that built them and are re-derived
    before a query once the engine has flushed it (or in another engine).
    """

    __slots__ = ("values", "arity", "profiles", "generation")

    def __init__(self, values, arity, profiles, generation):
        self.values: "list[tuple[str, ...]]" = values
        #: common length of the tuples (``None`` for an empty set)
        self.arity: Optional[int] = arity
        self.profiles: "list[tuple[int, int, int]]" = profiles
        self.generation: int = generation


class DistanceEngine:
    """Caches, prunes and early-exits the distances of one metric.

    One engine is shared by every stage of a cleaning run (batch pipeline,
    distributed driver, or the streaming engine, where it additionally
    persists across micro-batches).  All results are exact — the pair memo
    stores only exact distances, and bounded evaluations return exact values
    whenever the distance is within the cutoff — so memoisation never
    changes a cleaning decision.
    """

    def __init__(self, metric: DistanceMetric):
        self.metric = metric
        #: engine-local counters.  Never rebound: the process-wide registry
        #: holds this exact object, so replacing it would silently detach
        #: the engine from :func:`global_distance_stats` (mutate in place).
        self.stats = DistanceStats()
        self._exact: dict = {}
        self._interned: dict = {}
        self._interned_tuples: dict = {}
        #: value tuple → its profile, composed from ``_profile_parts``
        self._profiles: dict = {}
        #: ``(position, value)`` → the profile of one attribute value
        self._profile_parts: dict = {}
        #: the bit numbering every cached profile's masks were built under;
        #: flushed only together with ``_profiles`` and ``_profile_parts``
        #: (engines are single-threaded, so no lock)
        self._profile_bits: dict = {}
        #: renewed by every flush of ``_profile_bits``: a prepared candidate
        #: set's profiles are valid only under the generation that built them
        self._generation = next(_GENERATIONS)
        self._affix_safe = bool(getattr(metric, "affix_safe", False))
        #: bound-destroying edit operations per unigram (``None`` disables
        #: the count filter for this metric: every profile is empty, every
        #: bound zero, and batch queries scan in input order, which is still
        #: bit-identical)
        self._qgram_ops = getattr(metric, "qgram_edit_ops", None)
        _register_engine(self)

    @classmethod
    def from_config(cls, config) -> "DistanceEngine":
        """An engine honouring an :class:`~repro.core.config.MLNCleanConfig`."""
        return cls(config.metric())

    # ------------------------------------------------------------------
    # interning and cache plumbing
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The wrapped metric's registry name (duck-types as a metric)."""
        return self.metric.name

    def intern(self, value: str) -> str:
        """The canonical instance of ``value`` in this engine's pool."""
        interned = self._interned
        canonical = interned.get(value)
        if canonical is None:
            if len(interned) >= _DERIVED_CACHE_LIMIT:
                interned.clear()
            canonical = interned[value] = value
        return canonical

    def intern_values(self, values: "Iterable[str]") -> "tuple[str, ...]":
        """The canonical ``tuple[str, ...]`` of a value sequence.

        Memoized per tuple content: repeated interning of the same γ values
        (every AGP probe, every RSC pair) is one dict probe instead of a
        per-value re-intern — intern once, pass the tuple through.
        """
        values = tuple(values)
        canonical = self._interned_tuples.get(values)
        if canonical is None:
            if len(self._interned_tuples) >= _DERIVED_CACHE_LIMIT:
                self._interned_tuples.clear()
            canonical = tuple(self.intern(value) for value in values)
            self._interned_tuples[canonical] = canonical
            if values is not canonical:
                self._interned_tuples[values] = canonical
        return canonical

    def cache_size(self) -> int:
        return len(self._exact)

    @staticmethod
    def _exact_key(left: str, right: str):
        """Pair key for already-interned strings (no pool probes)."""
        return (left, right) if left <= right else (right, left)

    def _store_exact(self, key, value: float) -> None:
        exact = self._exact
        if len(exact) >= _DERIVED_CACHE_LIMIT:
            exact.clear()
        exact[key] = value

    # ------------------------------------------------------------------
    # distances
    # ------------------------------------------------------------------
    def distance(self, left: str, right: str) -> float:
        """Exact distance, served from the cache when possible."""
        if left == right:
            self.stats.calls += 1
            self.stats.trivial += 1
            return 0.0
        return self._distance_canonical(self.intern(left), self.intern(right))

    def _distance_canonical(self, left: str, right: str) -> float:
        """:meth:`distance` for already-interned strings (batch hot path)."""
        self.stats.calls += 1
        if left == right:
            self.stats.trivial += 1
            return 0.0
        key = self._exact_key(left, right)
        cached = self._exact.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        return self._compute(key, left, right)

    def _bounded(self, left: str, right: str, cutoff: float) -> float:
        """Exact distance of interned strings when ``≤ cutoff``; else a bound.

        The not-exact return value is a true lower bound ``> cutoff`` of the
        distance, so best-so-far searches can prune on it; it must not be
        used as a distance.
        """
        if cutoff == math.inf:
            return self._distance_canonical(left, right)
        self.stats.calls += 1
        if left == right:
            self.stats.trivial += 1
            return 0.0
        key = self._exact_key(left, right)
        cached = self._exact.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        return self._compute(key, left, right, cutoff)

    def _compute(
        self, key, left: str, right: str, cutoff: float = math.inf
    ) -> float:
        """Run the metric on a cache miss and memoize what it settles.

        Affix-safe metrics see the affix-stripped pair, after the trivial
        cases and the length-difference bound; their bounded form may stop
        early above ``cutoff`` and return a lower bound instead, which is
        not memoized.
        """
        if not self._affix_safe:
            self.stats.raw_evaluations += 1
            result = self.metric.distance(left, right)
            self._store_exact(key, result)
            return result
        left, right = strip_common_affixes(left, right)
        trivial = trivial_edit_distance(left, right)
        if trivial is not None:
            self.stats.trivial += 1
            self._store_exact(key, trivial)
            return trivial
        length_gap = abs(len(left) - len(right))
        if length_gap > cutoff:
            self.stats.length_prunes += 1
            return float(length_gap)
        value, exact = self.metric.bounded_distance(left, right, cutoff)
        if exact:
            self.stats.raw_evaluations += 1
            self._store_exact(key, value)
        else:
            self.stats.band_prunes += 1
        return value

    def distance_rows(
        self, values: "Sequence[str]", others: "Sequence[str]"
    ) -> "list[list[float]]":
        """``rows[i][j]`` is :meth:`distance` of ``values[i]`` and ``others[j]``.

        One run of the metric's batched form (for Levenshtein the packed
        multi-pattern kernel), bit for bit the per-pair values.  The pair
        memo is not read, but every pair of unequal strings is stored in it,
        so later scalar calls hit as they would after per-pair
        :meth:`distance` calls.
        """
        self.stats.row_pairs += len(values) * len(others)
        rows = self.metric.distance_rows(values, others)
        others = [self.intern(other) for other in others]
        for value, row in zip(values, rows):
            value = self.intern(value)
            for other, distance in zip(others, row):
                if value != other:
                    self._store_exact(self._exact_key(value, other), distance)
        return rows

    # ------------------------------------------------------------------
    # value tuples (pieces of data)
    # ------------------------------------------------------------------
    def values_distance(
        self, left: "Sequence[str]", right: "Sequence[str]"
    ) -> float:
        """Sum of per-position distances.

        Equals :meth:`repro.distance.base.DistanceMetric.values_distance` bit
        for bit (same per-pair values, same left-to-right summation order),
        as do the distributed partitioner's per-column centroid sums over
        :meth:`distance_rows`.
        """
        if len(left) != len(right):
            raise ValueError("value tuples must have the same length")
        self.stats.value_calls += 1
        total = 0.0
        for left_value, right_value in zip(left, right):
            total += self.distance(left_value, right_value)
        return total

    def _values_bounded(
        self,
        left: "tuple[str, ...]",
        right: "tuple[str, ...]",
        cutoff: float,
    ) -> float:
        """Cutoff-accumulating tuple distance over interned tuples.

        The exact sum whenever it is ``≤ cutoff``; otherwise the
        accumulation stops at the first attribute that pushes a lower bound
        of the sum past the cutoff, and some value ``> cutoff`` comes back.
        The tuples were interned and their arities checked once, when the
        candidate set was prepared, so pair keys need no pool probes.
        """
        self.stats.value_calls += 1
        total = 0.0
        last = len(left) - 1
        for position, (left_value, right_value) in enumerate(zip(left, right)):
            total += self._bounded(left_value, right_value, cutoff - total)
            if total > cutoff:
                if position < last:
                    self.stats.value_short_circuits += 1
                return total
        return total

    # ------------------------------------------------------------------
    # batch candidate-set API
    #
    # The batch-first surface of the engine: callers hand over a *candidate
    # set* (a sequence, or one prepared for many queries) instead of issuing
    # scalar best-so-far calls, and the engine owns the visit order (unigram
    # lower bounds ascending), the pruning (skip a candidate only when its
    # lower bound strictly exceeds the running cutoff).  Every result is
    # bit-identical to the brute-force scalar loop: any candidate whose exact
    # distance ties the final best is always measured exactly, because the
    # running cutoff never drops below the final best and pruning is strict.
    # ------------------------------------------------------------------
    def _profiles_of(
        self, tuples: "list[tuple[str, ...]]"
    ) -> "list[tuple[int, int, int]]":
        """The (cached) ``(total, mask, length_mask)`` profiles of one batch.

        A tuple's profile sums and ORs the cached profiles of its values: the
        bits of different positions are disjoint, so this is the profile of
        the whole tuple.  A mask is only comparable under the numbering that
        built it, so the caches flush before a batch that would overflow
        them, never inside one: every profile a batch compares shares one
        numbering.  A flush starts a new generation, which makes every
        prepared set stale.
        """
        if self._qgram_ops is None:
            return [(0, 0, 0)] * len(tuples)
        profiles, parts = self._profiles, self._profile_parts
        if (
            len(profiles) + len(tuples) > _DERIVED_CACHE_LIMIT
            or len(parts) + sum(map(len, tuples)) > _DERIVED_CACHE_LIMIT
        ):
            profiles.clear()
            parts.clear()
            self._profile_bits.clear()
            self._generation = next(_GENERATIONS)
        bits = self._profile_bits
        batch = []
        for values in tuples:
            profile = profiles.get(values)
            if profile is None:
                total = mask = length_mask = 0
                for key in enumerate(values):
                    part = parts.get(key)
                    if part is None:
                        part = parts[key] = build_profile(*key, bits)
                    total += part[0]
                    mask |= part[1]
                    length_mask |= part[2]
                profile = profiles[values] = (total, mask, length_mask)
            batch.append(profile)
        return batch

    def prepare(self, candidates: "Iterable[Sequence[str]]") -> CandidateSet:
        """Intern and profile a candidate set once, for many queries.

        Raises ``ValueError`` when the candidates differ in arity.
        """
        values = [self.intern_values(candidate) for candidate in candidates]
        arities = set(map(len, values))
        if len(arities) > 1:
            raise ValueError("value tuples must have the same length")
        profiles = self._profiles_of(values)
        return CandidateSet(
            values, arities.pop() if arities else None, profiles, self._generation
        )

    def update(
        self, prepared: CandidateSet, position: int, values: "Sequence[str]"
    ) -> None:
        """Replace the candidate at ``position`` of a prepared set."""
        values = self.intern_values(values)
        if len(values) != prepared.arity:
            raise ValueError("value tuples must have the same length")
        prepared.values[position] = values
        # a flush here leaves the set stale; its next query re-profiles it
        prepared.profiles[position] = self._profiles_of([values])[0]

    def _bound_keys(
        self,
        query_profile: "tuple[int, int, int]",
        profiles: "Sequence[tuple[int, int, int]]",
        shift: int,
        first: int,
    ) -> "list[int]":
        """``(lower_bound << shift) | (first + offset)`` per profile, in order.

        The inline form of :func:`repro.perf.qgram.lower_bound`, bounding the
        query against every profile in one loop.  At one edit operation per
        unigram the bound is ``Σ_p max_len_p - S`` alone, which never falls
        below the length term: one AND and one popcount per profile.
        """
        ops = self._qgram_ops or 1
        if ops != 1:
            return self._scaled_bound_keys(query_profile, profiles, shift, first, ops)
        query_total, query_mask, _ = query_profile
        # qgram.popcount rather than int.bit_count, which Python 3.9 lacks
        popcount = _popcount
        return [
            (query_total + total - popcount(query_mask & mask)) << shift | key
            for key, (total, mask, _) in enumerate(profiles, first)
        ]

    @staticmethod
    def _scaled_bound_keys(
        query_profile: "tuple[int, int, int]",
        profiles: "Sequence[tuple[int, int, int]]",
        shift: int,
        first: int,
        ops: int,
    ) -> "list[int]":
        """:meth:`_bound_keys` for ``ops`` edit operations per unigram."""
        query_total, query_mask, query_lengths = query_profile
        popcount = _popcount
        keys = []
        append = keys.append
        for key, (total, mask, lengths) in enumerate(profiles, first):
            bound = popcount(query_lengths ^ lengths)
            missing = query_total + total - popcount(query_mask & mask)
            # ceil(missing / ops) > bound  ⇔  missing > bound * ops
            if missing > bound * ops:
                bound = (missing + ops - 1) // ops
            append(bound << shift | key)
        return keys

    def _order(
        self, prepared: CandidateSet, query_profile: "tuple[int, int, int]"
    ) -> "tuple[list[int], int]":
        """A heap of ``(lower_bound << shift) | position`` keys, and ``shift``.

        Popping it visits the candidates in ``(bound, position)`` order.
        """
        shift = len(prepared.values).bit_length()
        keys = self._bound_keys(query_profile, prepared.profiles, shift, 0)
        heapify(keys)
        return keys, shift

    def _query(
        self,
        query: "Sequence[str]",
        candidates: "CandidateSet | Sequence[Sequence[str]]",
        cutoff: float,
        k: int,
    ) -> "list[tuple[float, int]]":
        """The :meth:`_scan` of one ``nearest`` / ``topk`` query.

        The query profiles only itself.  A set prepared before a flush of
        the bit numbering (or one that profiling the query flushes) is
        re-profiled in one batch with the query.
        """
        if not isinstance(candidates, CandidateSet):
            candidates = self.prepare(candidates)
        query = self.intern_values(query)
        self.stats.batch_queries += 1
        self.stats.qgram_candidates += len(candidates.values)
        if not candidates.values:
            return []
        if len(query) != candidates.arity:
            raise ValueError("value tuples must have the same length")
        if candidates.generation == self._generation:
            profile = self._profiles_of([query])[0]
        if candidates.generation != self._generation:
            profile, *candidates.profiles = self._profiles_of([query, *candidates.values])
            candidates.generation = self._generation
        keys, shift = self._order(candidates, profile)
        return self._scan(query, candidates.values, keys, shift, cutoff, k)

    def _scan(
        self,
        query: "tuple[str, ...]",
        cands: "list[tuple[str, ...]]",
        keys: "list[int]",
        shift: int,
        cutoff: float,
        k: int,
    ) -> "list[tuple[float, int]]":
        """Best-so-far scan of a heap of candidate keys (see :meth:`_order`).

        Returns the up to ``k`` nearest ``(distance, position)`` pairs within
        ``cutoff``, ascending, ties broken toward smaller positions.  Once
        ``k`` candidates are held the running cutoff tightens to the current
        k-th distance.
        """
        selected: "list[tuple[float, int]]" = []
        limit = cutoff
        position_mask = (1 << shift) - 1
        while keys:
            key = heappop(keys)
            if key >> shift > limit:
                self.stats.qgram_filtered += len(keys) + 1
                break
            candidate = key & position_mask
            value = self._values_bounded(query, cands[candidate], limit)
            if value > limit:
                continue
            selected.append((value, candidate))
            selected.sort()
            if len(selected) > k:
                selected.pop()
            if len(selected) == k and selected[-1][0] < limit:
                limit = selected[-1][0]
        return selected

    @staticmethod
    def _first(selected: "list[tuple[float, int]]") -> "tuple[Optional[int], float]":
        """``(position, distance)`` of a k = 1 scan; ``(None, inf)`` if empty."""
        return (selected[0][1], selected[0][0]) if selected else (None, math.inf)

    def nearest(
        self,
        query: "Sequence[str]",
        candidates: "CandidateSet | Sequence[Sequence[str]]",
        cutoff: float = math.inf,
    ) -> "tuple[Optional[int], float]":
        """The candidate nearest to ``query`` within ``cutoff``.

        Returns ``(position, distance)`` into the *candidates* sequence (or
        prepared set), ties broken toward the smallest position; ``(None,
        inf)`` when no candidate is within the cutoff.  Bit-identical to the
        brute-force scalar loop.
        """
        return self._first(self._query(query, candidates, cutoff, 1))

    def pairwise(
        self, values: "Sequence[Sequence[str]]"
    ) -> "list[tuple[Optional[int], float]]":
        """Per item: ``(position_of_nearest_other_item, min_distance)``.

        The all-pairs surface RSC-style scoring needs: for every item the
        exact minimum distance to any *other* item, ties broken toward the
        smallest position (``(None, inf)`` when there is only one).  Each
        unordered pair is bounded once into a ``(bound << shift) | (i * n +
        j)`` key and the keys are sorted once.  The walk skips a pair whose
        bound exceeds both items' running minima; any other pair is
        evaluated once, with the larger of the two minima as the cutoff, and
        updates both items.  A skipped pair counts as two filtered
        candidates, one per item.
        """
        prepared = self.prepare(values)
        items = prepared.values
        self.stats.batch_queries += 1
        n = len(items)
        if n < 2:
            return [(None, math.inf)] * n
        self.stats.qgram_candidates += n * (n - 1)
        shift = (n * n).bit_length()
        profiles = prepared.profiles
        keys = []
        for i, profile in enumerate(profiles):
            # the pairs (i, j > i), numbered i * n + j
            keys += self._bound_keys(profile, profiles[i + 1 :], shift, i * n + i + 1)
        keys.sort()
        best = [math.inf] * n
        nearest = [n] * n
        pair_mask = (1 << shift) - 1
        skipped = 0
        for key in keys:
            bound = key >> shift
            i, j = divmod(key & pair_mask, n)
            best_i, best_j = best[i], best[j]
            if bound > best_i and bound > best_j:
                skipped += 1
                continue
            cutoff = best_i if best_i > best_j else best_j
            value = self._values_bounded(items[i], items[j], cutoff)
            # a value above the cutoff is only a bound, above both minima
            if value < best_i or (value == best_i and j < nearest[i]):
                best[i], nearest[i] = value, j
            if value < best_j or (value == best_j and i < nearest[j]):
                best[j], nearest[j] = value, i
        self.stats.qgram_filtered += 2 * skipped
        return list(zip(nearest, best))

    def topk(
        self,
        query: "Sequence[str]",
        candidates: "CandidateSet | Sequence[Sequence[str]]",
        k: int,
        cutoff: float = math.inf,
    ) -> "list[tuple[int, float]]":
        """The ``k`` candidates nearest to ``query``, within ``cutoff``.

        Returns up to ``k`` ``(position, distance)`` pairs sorted by
        ``(distance, position)`` ascending; ties at the k-th distance are
        broken toward smaller positions.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        return [
            (candidate, value)
            for value, candidate in self._query(query, candidates, cutoff, k)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistanceEngine({self.metric.name!r}, entries={len(self._exact)}, "
            f"hit_rate={self.stats.hit_rate:.3f})"
        )
