"""FSCR, the Levenshtein kernel, the unigram bound, AGP's merge targets and
the Algorithm-3 partitioner against test-local reference implementations,
and MLN weight learning against the optimality conditions of its objective.

The reference code below is the straightforward form of each loop: a
per-tuple merge-order search that rebuilds each γ's assignment dict on every
visit, the rolling-row edit-distance dynamic program, the count filter over
``(position, char) → count`` dicts, an AGP pass that re-derives every
representative and measures every distance for every query, and a
partitioner that asks the metric for every tuple-to-centroid distance.  The
production code searches on γs coded as integer words, memoizes the order
search per version signature and the substitution search per block and
restricted word, computes edit distances with a bit-parallel kernel, bounds
with popcounts of profile bit masks composed from per-value parts, keeps
representatives across a block pass and measures each distinct attribute
value against the centroids once;
each must produce exactly (``==``, not approximately) the same fusions,
failed tuples, distances, bounds, merge targets and partitions on every
generated input.  A fusion stores no f-score, but the
reference picks its fusion by f-score with the same strict ``>`` tie-break,
so the chosen assignment, conflicted attributes and substitution count are
still compared exactly.  The weight learner solves its objective to the
optimum, so it is checked by the KKT conditions at the weights it returns.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import replace
from typing import Optional
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.constraints.rules import FunctionalDependency
from repro.core.agp import AbnormalGroupProcessor
from repro.core.config import MLNCleanConfig
from repro.core.fscr import FusionScoreResolver
from repro.core.index import Block, DataPiece, MLNIndex
from repro.core.rsc import ReliabilityScoreCleaner
from repro.dataset.table import Table
from repro.distance import get_metric
from repro.distance.fastpath import levenshtein, levenshtein_rows
from repro.distributed.partition import DataPartitioner
from repro.errors.injector import ErrorSpec
from repro.mln.weights import WeightLearningConfig, learn_group_weights
from repro.perf import engine as engine_module
from repro.perf.qgram import _bin_popcount, lower_bound
from repro.workloads.registry import get_workload_generator, recommended_config


# ----------------------------------------------------------------------
# reference FSCR: a per-tuple search with no memo and no cached pairs
# ----------------------------------------------------------------------
def _weight_factor(weight: float) -> float:
    return math.exp(min(weight, 30.0))


class ReferenceResolver:
    def __init__(self, config: MLNCleanConfig):
        self.config = config

    def resolve(self, dirty: Table, blocks: list[Block]):
        """``{tid: (assignment, conflicted, substitutions)}`` and the failed tids."""
        block_candidates = self._candidates_by_block(blocks)
        fusions, failed = {}, []
        for tid in dirty.tids:
            versions = self._versions_of(tid, blocks)
            if not versions:
                continue
            fused = self._fuse_signature(
                versions, block_candidates, dirty.row(tid).as_dict()
            )
            if fused is None:
                failed.append(tid)
            else:
                fusions[tid] = fused
        return fusions, failed

    @staticmethod
    def _versions_of(tid: int, blocks: list[Block]) -> list[tuple[Block, DataPiece]]:
        """The tuple's γ in every block that covers it, in block order."""
        return [
            (block, piece)
            for block in blocks
            for group in block.groups.values()
            for piece in group.pieces.values()
            if tid in piece.tids
        ]

    @staticmethod
    def _candidates_by_block(blocks: list[Block]) -> dict[str, list[DataPiece]]:
        """Per rule name, every γ of the blocks with that name, by weight.

        Blocks sharing a rule name (one per partition in the distributed
        driver) pool their γs, so a substitute may come from any of them.
        """
        candidates: dict[str, list[DataPiece]] = {}
        for block in blocks:
            for group in block.groups.values():
                candidates.setdefault(block.name, []).extend(group.pieces.values())
        return {
            name: sorted(pieces, key=lambda piece: -piece.weight)
            for name, pieces in candidates.items()
        }

    def _fuse_signature(
        self,
        versions: list[tuple[Block, DataPiece]],
        block_candidates: dict[str, list[DataPiece]],
        current_values: dict[str, str],
    ) -> Optional[tuple[dict[str, str], frozenset, int]]:
        conflicted_attributes: set[str] = set()
        best: Optional[tuple[dict[str, str], float, int]] = None
        for order in self._merge_orders(versions):
            attempt = self._try_order(
                order, block_candidates, conflicted_attributes, current_values
            )
            if attempt is None:
                continue
            if best is None or attempt[1] > best[1]:
                best = attempt
        if best is None:
            return None
        assignment, _, substitutions = best
        return assignment, frozenset(conflicted_attributes), substitutions

    def _merge_orders(
        self, versions: list[tuple[Block, DataPiece]]
    ) -> list[list[tuple[Block, DataPiece]]]:
        if len(versions) <= self.config.fscr_exhaustive_limit:
            return [list(order) for order in itertools.permutations(versions)]
        orders: list[list[tuple[Block, DataPiece]]] = []
        for index, leader in enumerate(versions):
            rest = versions[:index] + versions[index + 1 :]
            rest.sort(key=lambda item: item[1].weight, reverse=True)
            orders.append([leader, *rest])
        return orders

    def _try_order(
        self,
        order: list[tuple[Block, DataPiece]],
        block_candidates: dict[str, list[DataPiece]],
        conflicted_attributes: set[str],
        current_values: dict[str, str],
    ) -> Optional[tuple[dict[str, str], float, int]]:
        assignment: dict[str, str] = {}
        f_score = 1.0
        substitutions = 0
        for block, piece in order:
            candidate = piece
            conflicts = self._conflicts(assignment, candidate.as_assignment())
            if conflicts:
                conflicted_attributes.update(conflicts)
                candidate = self._find_substitute(
                    assignment, block_candidates[block.name]
                )
                if candidate is None:
                    return None
                substitutions += 1
            assignment.update(
                {
                    attribute: value
                    for attribute, value in candidate.as_assignment().items()
                    if attribute not in assignment
                }
            )
            f_score *= _weight_factor(candidate.weight)
        if self.config.fscr_minimality_bias > 0.0:
            changes = sum(
                1
                for attribute, value in assignment.items()
                if current_values.get(attribute) != value
            )
            f_score *= math.exp(-self.config.fscr_minimality_bias * changes)
        return assignment, f_score, substitutions

    @staticmethod
    def _conflicts(
        assignment: dict[str, str], candidate: dict[str, str]
    ) -> list[str]:
        return [
            attribute
            for attribute, value in candidate.items()
            if attribute in assignment and assignment[attribute] != value
        ]

    def _find_substitute(
        self, assignment: dict[str, str], candidates: list[DataPiece]
    ) -> Optional[DataPiece]:
        for candidate in candidates:
            if not self._conflicts(assignment, candidate.as_assignment()):
                return candidate
        return None


# ----------------------------------------------------------------------
# comparison helpers
# ----------------------------------------------------------------------
def assert_fscr_matches_reference(config: MLNCleanConfig, table: Table, blocks):
    """Production and reference agree exactly; returns the production outcome."""
    outcome = FusionScoreResolver(config).resolve(table, blocks)
    expected, expected_failed = ReferenceResolver(config).resolve(table, blocks)
    assert outcome.failed_tuples == expected_failed
    assert list(outcome.fusions) == list(expected)
    for tid, (assignment, conflicted, substitutions) in expected.items():
        fusion = outcome.fusions[tid]
        assert fusion.tid == tid
        assert list(fusion.assignment.items()) == list(assignment.items())
        assert fusion.conflicted_attributes == conflicted
        assert fusion.substitutions == substitutions
        for attribute, value in assignment.items():
            assert outcome.repaired.value(tid, attribute) == value
    return outcome


ATTRIBUTES = ["A", "B", "C", "D", "E"]
DOMAIN = ["a", "b", "c"]
#: few distinct weights, so weight products tie often
WEIGHTS = [-1.0, 0.0, 0.5, 2.0]


@st.composite
def fusion_inputs(draw):
    """A small table, 1-6 FD blocks whose γs may disagree with the row, and weights.

    Each tuple's γ in a block is either its own values or a redrawn value
    tuple, which is what Stage I leaves behind after rewriting γs: versions
    of one tuple that conflict on shared attributes, and blocks whose pools
    may hold no agreeing substitute.
    """
    n_tuples = draw(st.integers(min_value=1, max_value=6))
    cell = st.sampled_from(DOMAIN)
    rows = [
        {attribute: draw(cell) for attribute in ATTRIBUTES} for _ in range(n_tuples)
    ]
    table = Table.from_records(rows, attributes=ATTRIBUTES)
    n_rules = draw(st.integers(min_value=1, max_value=6))
    blocks = []
    for number in range(n_rules):
        attributes = draw(
            st.lists(st.sampled_from(ATTRIBUTES), min_size=2, max_size=3, unique=True)
        )
        rule = FunctionalDependency(attributes[:-1], attributes[-1:], name=f"r{number}")
        block = Block(rule)
        for tid, row in zip(table.tids, rows):
            values = dict(row)
            if draw(st.booleans()):
                for attribute in attributes:
                    values[attribute] = draw(cell)
            block.add_tuple(tid, values)
        for piece in block.pieces:
            piece.weight = draw(st.sampled_from(WEIGHTS))
        blocks.append(block)
    config = MLNCleanConfig(
        fscr_exhaustive_limit=draw(st.integers(min_value=1, max_value=4)),
        fscr_minimality_bias=draw(st.sampled_from([0.0, 0.5, 1.0])),
    )
    return config, table, blocks


@settings(max_examples=300, deadline=None)
@given(fusion_inputs())
def test_fscr_equals_reference_on_generated_blocks(inputs):
    assert_fscr_matches_reference(*inputs)


#: more values than 8 bits can number: every rule's pool holds all of them
WIDE = [f"v{number}" for number in range(300)]
#: tuple ids of γs outside the resolved table
FILLER_TID, OUTSIDE_TID = 10_000, 1_000


@st.composite
def encoding_edge_inputs(draw):
    """Blocks at the edges of FSCR's integer coding of γs.

    Attribute A has over 255 distinct values.  γs of tuples outside the
    resolved table (as in the streaming engine's subset) number all of them
    first, so the table's own A values take the top ids of a 9-bit field.
    Empty strings are values like any other.  Each rule is split over one or
    two blocks sharing its name, as the distributed driver's partitions are,
    and pool γs of outside tuples can be substitutes.
    """
    narrow = st.sampled_from(["", "a", "b"])
    rows = [
        {
            "A": draw(st.sampled_from(["", *WIDE[-3:]])),
            **{attribute: draw(narrow) for attribute in ATTRIBUTES[1:]},
        }
        for _ in range(draw(st.integers(min_value=1, max_value=5)))
    ]
    table = Table.from_records(rows, attributes=ATTRIBUTES)
    blocks = []
    for number in range(draw(st.integers(min_value=1, max_value=4))):
        others = draw(
            st.lists(st.sampled_from(ATTRIBUTES[1:]), min_size=1, max_size=2, unique=True)
        )
        attributes = draw(st.permutations(["A", *others]))
        rule = FunctionalDependency(attributes[:-1], attributes[-1:], name=f"r{number}")
        parts = [Block(rule) for _ in range(draw(st.integers(min_value=1, max_value=2)))]
        filler = dict.fromkeys(ATTRIBUTES, "a")
        for offset, value in enumerate(WIDE):
            parts[0].add_tuple(FILLER_TID + offset, {**filler, "A": value})
        drawn = list(zip(table.tids, rows))
        for offset in range(draw(st.integers(min_value=0, max_value=2))):
            drawn.append((OUTSIDE_TID + offset, dict(rows[0])))
        for tid, row in drawn:
            values = dict(row)
            if draw(st.booleans()):
                values["A"] = draw(st.sampled_from(["", *WIDE[-3:]]))
                for attribute in others:
                    values[attribute] = draw(narrow)
            draw(st.sampled_from(parts)).add_tuple(tid, values)
        for part in parts:
            for piece in part.pieces:
                piece.weight = (
                    draw(st.sampled_from(WEIGHTS))
                    if min(piece.tids) < FILLER_TID
                    else -2.0
                )
        blocks.extend(parts)
    config = MLNCleanConfig(
        fscr_exhaustive_limit=draw(st.integers(min_value=1, max_value=4)),
        fscr_minimality_bias=draw(st.sampled_from([0.0, 0.5, 1.0])),
    )
    return config, table, blocks


@settings(max_examples=100, deadline=None)
@given(encoding_edge_inputs())
def test_fscr_equals_reference_at_the_edges_of_the_value_coding(inputs):
    config, table, blocks = inputs
    pool_values = {piece.as_assignment()["A"] for piece in blocks[0].pieces}
    assert len(pool_values) > 255
    assert_fscr_matches_reference(config, table, blocks)


def _conflict_blocks():
    """Two tuples whose block-r1 versions disagree with their block-r0 ones."""
    table = Table.from_records(
        [{"A": "a", "B": "b", "C": "c"}, {"A": "a", "B": "b", "C": "c"}]
    )
    r0 = Block(FunctionalDependency(["A"], ["B"], name="r0"))
    r1 = Block(FunctionalDependency(["B"], ["C"], name="r1"))
    r0.add_tuple(0, {"A": "a", "B": "b"})
    r0.add_tuple(1, {"A": "a", "B": "b"})
    r1.add_tuple(0, {"B": "x", "C": "c"})
    r1.add_tuple(1, {"B": "b", "C": "y"})
    return table, r0, r1


@pytest.mark.parametrize("bias", [0.0, 1.0])
@pytest.mark.parametrize("limit", [1, 5])
def test_fscr_failed_substitution_equals_reference(bias, limit):
    """r1's pool holds no γ with B = b, so tuple 0 fails in either order."""
    table, r0, r1 = _conflict_blocks()
    r1.groups.pop(("b",))
    r0.pieces[0].weight, r1.pieces[0].weight = 1.0, 2.0
    config = MLNCleanConfig(fscr_exhaustive_limit=limit, fscr_minimality_bias=bias)
    outcome = assert_fscr_matches_reference(config, table, [r0, r1])
    assert outcome.failed_tuples == [0]


@pytest.mark.parametrize("bias", [0.0, 1.0])
@pytest.mark.parametrize("limit", [1, 5])
def test_fscr_substitution_and_tied_products_equal_reference(bias, limit):
    """Tuple 0 needs a substitute; equal weights tie every order's product."""
    table, r0, r1 = _conflict_blocks()
    for piece in r0.pieces + r1.pieces:
        piece.weight = 0.5
    config = MLNCleanConfig(fscr_exhaustive_limit=limit, fscr_minimality_bias=bias)
    outcome = assert_fscr_matches_reference(config, table, [r0, r1])
    assert not outcome.failed_tuples
    assert outcome.fusions[0].substitutions == 1
    assert outcome.fusions[0].conflicted_attributes == {"B"}
    assert outcome.fusions[1].substitutions == 0


def _shared_substitute_blocks(with_substitute: bool):
    """Two tuples with different version signatures (their r2 versions
    differ) whose r1 version conflicts with r0 on B under the same fused
    values, so both look up the same substitution-memo keys.  The pool γ
    (B=b) belongs to a tuple outside the table; without it every lookup of
    r1 misses and each tuple fails."""
    table = Table.from_records(
        [
            {"A": "a", "B": "b", "C": "c", "D": "d", "E": "e"},
            {"A": "a", "B": "b", "C": "c", "D": "d", "E": "f"},
        ]
    )
    r0 = Block(FunctionalDependency(["A"], ["B"], name="r0"))
    r1 = Block(FunctionalDependency(["B"], ["C"], name="r1"))
    r2 = Block(FunctionalDependency(["D"], ["E"], name="r2"))
    for tid, row in zip(table.tids, table.records()):
        r0.add_tuple(tid, row)
        r1.add_tuple(tid, {**row, "B": "x"})
        r2.add_tuple(tid, row)
    if with_substitute:
        r1.add_tuple(99, {"B": "b", "C": "z"})
    for weight, piece in enumerate(r0.pieces + r1.pieces + r2.pieces):
        piece.weight = weight / 4
    return table, [r0, r1, r2]


@pytest.mark.parametrize("with_substitute", [True, False], ids=["hit", "failure"])
@pytest.mark.parametrize("limit", [1, 5])
def test_fscr_substitution_memo_hits_equal_reference(with_substitute, limit, monkeypatch):
    """Tuple 1 is served from tuple 0's substitution searches, found or failed.

    Every order that conflicts asks either r1 for B=b (found only with the
    pool γ) or r0 for B=x (never found), so two searches serve both tuples.
    """
    searches = []
    search = FusionScoreResolver._substitute

    def counted(pool, word, mask):
        searches.append((word, mask))
        return search(pool, word, mask)

    monkeypatch.setattr(FusionScoreResolver, "_substitute", staticmethod(counted))
    table, blocks = _shared_substitute_blocks(with_substitute)
    config = MLNCleanConfig(fscr_exhaustive_limit=limit, fscr_minimality_bias=1.0)
    outcome = assert_fscr_matches_reference(config, table, blocks)
    assert outcome.memo_hits == 0
    assert len(searches) == 2
    if with_substitute:
        assert not outcome.failed_tuples
        assert all(fusion.substitutions == 1 for fusion in outcome.fusions.values())
        assert {fusion.assignment["C"] for fusion in outcome.fusions.values()} == {"z"}
    else:
        assert outcome.failed_tuples == [0, 1]


@pytest.mark.parametrize(
    "n_rules,overrides",
    [(7, {}), (7, {"fscr_minimality_bias": 0.0}), (4, {})],
    ids=["greedy", "no-minimality", "exhaustive"],
)
def test_fscr_equals_reference_after_stage_one_on_hai(n_rules, overrides):
    """All 7 HAI rules give 7 versions per tuple (greedy, above the default
    limit of 5); the first 4 rules give at most 4 (exhaustive)."""
    workload = get_workload_generator("hai", tuples=60, seed=7).build()
    instance = workload.make_instance(ErrorSpec(error_rate=0.15, seed=13))
    config = replace(recommended_config("hai"), abnormal_threshold=1, **overrides)
    index = MLNIndex.build(instance.dirty, instance.rules[:n_rules])
    AbnormalGroupProcessor(config).process_index(index.block_list)
    ReliabilityScoreCleaner(config).clean_index(index.block_list)
    outcome = assert_fscr_matches_reference(config, instance.dirty, index.block_list)
    assert sum(fusion.substitutions for fusion in outcome.fusions.values()) > 0


# ----------------------------------------------------------------------
# weight learning: the learned weights are a KKT point of the objective
# ----------------------------------------------------------------------
def assert_kkt_point(counts, priors, config: WeightLearningConfig, weights):
    """``weights`` maximise F(w) = Σc·w − T·log Σexp(w) − (λ/2)·‖w − w0‖² on the box.

    On a free coordinate ∂F/∂w vanishes (to 1e-8·(1 + T)); at a bound it
    points out of the box.
    """
    keys = list(counts)
    total = sum(counts.values())
    cap = config.max_weight
    values = [weights[key] for key in keys]
    peak = max(values)
    exponentials = [math.exp(w - peak) for w in values]
    normaliser = sum(exponentials)
    slack = 1e-8 * (1 + total)
    for key, w, e in zip(keys, values, exponentials):
        assert -cap <= w <= cap
        derivative = (
            counts[key]
            - total * e / normaliser
            - config.prior_strength * (w - priors.get(key, 0.0))
        )
        if w == cap:
            assert derivative >= -slack
        elif w == -cap:
            assert derivative <= slack
        else:
            assert abs(derivative) <= slack


@st.composite
def weight_inputs(draw):
    """One group's counts and priors, and a config whose cap may bind."""
    keys = [(("k",), (str(number),)) for number in range(draw(st.integers(1, 8)))]
    counts = {key: draw(st.integers(min_value=0, max_value=1000)) for key in keys}
    priors = {
        key: draw(st.floats(min_value=-5.0, max_value=5.0))
        for key in keys
        if draw(st.booleans())
    }
    config = WeightLearningConfig(
        prior_strength=draw(st.sampled_from([0.01, 0.5, 1.0, 10.0])),
        max_weight=draw(st.sampled_from([0.5, 3.0, 25.0])),
    )
    return counts, priors, config


@settings(max_examples=300, deadline=None)
@given(weight_inputs())
def test_learned_weights_are_a_kkt_point(inputs):
    counts, priors, config = inputs
    weights = learn_group_weights({"g": counts}, priors, config)
    assert list(weights) == list(counts)
    assert_kkt_point(counts, priors, config, weights)


@pytest.mark.parametrize("workload_name", ["hai", "car"])
def test_block_weights_are_a_kkt_point_on_workloads(workload_name):
    workload = get_workload_generator(workload_name, tuples=120, seed=7).build()
    instance = workload.make_instance(ErrorSpec(error_rate=0.15, seed=13))
    config = recommended_config(workload_name)
    index = MLNIndex.build(instance.dirty, instance.rules)
    AbnormalGroupProcessor(config).process_index(index.block_list)
    rsc = ReliabilityScoreCleaner(config)
    contested = 0
    for block in index.block_list:
        rsc.learn_block_weights(block)
        total = sum(piece.support for piece in block.pieces)
        priors = {piece.key: piece.support / total for piece in block.pieces}
        for group in block.group_list:
            counts = {piece.key: piece.support for piece in group.gammas}
            weights = {piece.key: piece.weight for piece in group.gammas}
            assert_kkt_point(counts, priors, config.weight_learning, weights)
            contested += len(counts) > 1
    assert contested > 0


# ----------------------------------------------------------------------
# reference Levenshtein: the rolling-row dynamic program, no fast paths
# ----------------------------------------------------------------------
def reference_levenshtein(left: str, right: str) -> float:
    previous = list(range(len(right) + 1))
    for i, char_left in enumerate(left, start=1):
        current = [i]
        for j, char_right in enumerate(right, start=1):
            current.append(
                min(
                    current[j - 1] + 1,
                    previous[j] + 1,
                    previous[j - 1] + (char_left != char_right),
                )
            )
        previous = current
    return float(previous[-1])


#: a few symbols, astral ones included, so random strings share characters
_SMALL_ALPHABET = "ab\u00e9\u4e2d\U0001f600\U00010348"
#: up to 200 characters: past one 30-bit int digit and past a 64-bit word
unicode_text = st.one_of(
    st.text(max_size=200),
    st.text(alphabet=_SMALL_ALPHABET, max_size=200),
)


@st.composite
def text_pairs(draw):
    """An unrelated pair, or a string and a copy with a few edits."""
    left = draw(unicode_text)
    if draw(st.booleans()):
        return left, draw(unicode_text)
    right = list(left)
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        position = draw(st.integers(min_value=0, max_value=len(right)))
        char = draw(st.sampled_from(_SMALL_ALPHABET))
        operation = draw(st.sampled_from(["insert", "delete", "substitute"]))
        if operation == "insert" or position == len(right):
            right.insert(position, char)
        elif operation == "delete":
            del right[position]
        else:
            right[position] = char
    return left, "".join(right)


@settings(max_examples=200, deadline=None)
@given(text_pairs())
@example(("", ""))
@example(("", "abc"))
@example(("\U0001f600" * 70, ""))
@example(("same", "same"))
def test_levenshtein_kernel_equals_reference(pair):
    left, right = pair
    expected = reference_levenshtein(left, right)
    assert levenshtein(left, right) == (expected, True)
    assert levenshtein(right, left) == (expected, True)


@settings(max_examples=200, deadline=None)
@given(unicode_text)
def test_levenshtein_kernel_of_equal_strings_is_zero(text):
    assert levenshtein(text, text) == (0.0, True)
    assert levenshtein(text, text, 0.0) == (0.0, True)


@settings(max_examples=300, deadline=None)
@given(
    text_pairs(),
    st.one_of(
        st.integers(min_value=0, max_value=12).map(float),
        st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
    ),
)
@example(("", ""), 0.0)
@example(("abc", ""), 1.0)
@example(("kitten", "sitting"), 2.0)
def test_levenshtein_kernel_bounded_contract(pair, cutoff):
    left, right = pair
    expected = reference_levenshtein(left, right)
    value, exact = levenshtein(left, right, cutoff)
    if exact:
        assert value == expected
    else:
        assert cutoff < value <= expected
    if expected <= cutoff:
        assert exact


@st.composite
def row_inputs(draw):
    """Kernel inputs: a wide pack of short patterns, or a few long ones.

    Patterns may be empty, repeat each other and hold "\0", the packing's
    guard character.
    """
    short_text = st.text(alphabet=_SMALL_ALPHABET + "\0", max_size=12)
    if draw(st.booleans()):
        patterns = draw(st.lists(short_text, min_size=200, max_size=240))
        texts = draw(st.lists(short_text, max_size=3))
    else:
        patterns = draw(st.lists(st.one_of(short_text, unicode_text), max_size=8))
        texts = draw(st.lists(st.one_of(short_text, unicode_text), max_size=3))
    if patterns:
        patterns += draw(st.lists(st.sampled_from(patterns), max_size=3))
    return patterns, texts


@settings(max_examples=150, deadline=None)
@given(row_inputs())
@example(([], ["abc"]))
@example((["abc"], []))
@example((["", "ab", ""], ["", "b"]))
@example((["\u00e9" * 70, "a"], ["\u00e9" * 65 + "a", "\u00e9"]))
@example(([f"v{number}" for number in range(230)], ["v7", "", "v1000"]))
def test_levenshtein_rows_equal_reference(inputs):
    patterns, texts = inputs
    assert levenshtein_rows(patterns, texts) == [
        [reference_levenshtein(pattern, text) for text in texts] for pattern in patterns
    ]
    assert levenshtein_rows(texts, patterns) == [
        [reference_levenshtein(text, pattern) for pattern in patterns] for text in texts
    ]


# ----------------------------------------------------------------------
# reference unigram bound: (position, char) → count dicts
# ----------------------------------------------------------------------
def reference_lower_bound(
    left: tuple[str, ...], right: tuple[str, ...], edit_ops: int
) -> float:
    """The count filter at q = 1 over dict-keyed positional multisets."""

    def grams(values):
        counts: dict[tuple[int, str], int] = {}
        for position, value in enumerate(values):
            for character in value:
                counts[(position, character)] = counts.get((position, character), 0) + 1
        return counts

    length_bound = sum(abs(len(a) - len(b)) for a, b in zip(left, right))
    gram_cap = sum(max(len(a), len(b)) for a, b in zip(left, right))
    left_grams, right_grams = grams(left), grams(right)
    shared = sum(
        min(count, right_grams.get(key, 0)) for key, count in left_grams.items()
    )
    bound = length_bound
    if gram_cap > shared:
        bound = max(bound, (gram_cap - shared + edit_ops - 1) // edit_ops)
    return float(bound)


#: repeated characters, an astral one included, so positional multisets overlap
_BOUND_ALPHABET = "aabé\U0001f600"
bound_text = st.one_of(
    st.text(alphabet=_BOUND_ALPHABET, max_size=12), st.text(max_size=12)
)


@st.composite
def same_arity_tuples(draw):
    """2-8 value tuples of one arity (1-4), so every pair is comparable."""
    arity = draw(st.integers(min_value=1, max_value=4))
    row = st.lists(bound_text, min_size=arity, max_size=arity).map(tuple)
    return draw(st.lists(row, min_size=2, max_size=8))


@settings(max_examples=300, deadline=None)
@given(same_arity_tuples())
@example([("",), ("",)])
@example([("aaa", ""), ("a", "bb")])
@example([("\U0001f600\U0001f600", "x"), ("\U0001f600", "x")])
def test_unigram_bound_equals_reference(rows):
    # the engine composes each tuple's profile from per-value parts
    profiles = engine_module.DistanceEngine(get_metric("levenshtein"))._profiles_of(rows)
    for (i, left), (j, right) in itertools.product(enumerate(rows), repeat=2):
        for edit_ops in (1, 2):
            expected = reference_lower_bound(left, right, edit_ops)
            assert lower_bound(profiles[i], profiles[j], edit_ops) == expected
        assert lower_bound(profiles[i], profiles[j], 1) <= sum(
            map(reference_levenshtein, left, right)
        )


@pytest.mark.skipif(not hasattr(int, "bit_count"), reason="int.bit_count is 3.10+")
@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=1 << 400))
@example(0)
@example((1 << 64) - 1)
def test_bin_popcount_fallback_equals_int_bit_count(value):
    assert _bin_popcount(value) == value.bit_count()


# ----------------------------------------------------------------------
# reference AGP: fresh representatives and exact distances for every query
# ----------------------------------------------------------------------
def reference_agp_targets(block: Block, threshold: int) -> list[tuple[str, ...]]:
    """Merge targets of an exhaustive AGP pass, mutating ``block`` as AGP does."""
    abnormal = [
        key for key, group in block.groups.items() if group.tuple_count <= threshold
    ]
    normal = sorted(key for key in block.groups if key not in abnormal)
    targets = []
    for key in abnormal:
        query = block.groups[key].representative().values
        target = min(
            normal,
            key=lambda candidate: (
                sum(
                    map(
                        reference_levenshtein,
                        query,
                        block.groups[candidate].representative().values,
                    )
                ),
                candidate,
            ),
        )
        for piece in block.remove_group(key).gammas:
            block.groups[target].add_piece(piece)
        targets.append(target)
    return targets


def _refresh_block() -> Block:
    """A τ = 1 block whose first merge replaces the target's representative.

    ``("x",)`` holds two single-tuple γs, so its γ* is ``("x", "zzzy")`` by
    the value tie-break.  The abnormal ``("xq", "zzzz")`` merges into it
    (distance 2, against 3 to ``("xqqqq",)``) and, with equal support and
    larger values, becomes its γ*.  ``("xqq", "zzzz")`` is then 1 away from
    the new γ* of ``("x",)`` and 2 from ``("xqqqq",)``, but 3 from the stale
    ``("x", "zzzy")``.
    """
    block = Block(FunctionalDependency(["A"], ["B"], name="r"))
    rows = [
        ("x", "aaaa"),
        ("x", "zzzy"),
        ("xqqqq", "zzzz"),
        ("xqqqq", "zzzz"),
        ("xq", "zzzz"),
        ("xqq", "zzzz"),
    ]
    for tid, (a, b) in enumerate(rows):
        block.add_tuple(tid, {"A": a, "B": b})
    return block


def test_agp_refreshes_the_representative_of_a_merge_target():
    config = MLNCleanConfig(abnormal_threshold=1)
    outcome = AbnormalGroupProcessor(config).process_block(_refresh_block())
    expected = reference_agp_targets(_refresh_block(), threshold=1)
    assert expected == [("x",), ("x",)]
    assert [merge.target_key for merge in outcome.merges] == expected


@st.composite
def agp_blocks(draw):
    """Rows for an FD block ``A -> B`` over a small alphabet, so merges chain."""
    cell = st.text(alphabet="abc", min_size=0, max_size=4)
    return draw(st.lists(st.tuples(cell, cell), min_size=1, max_size=24))


@settings(max_examples=200, deadline=None)
@given(agp_blocks(), st.integers(min_value=1, max_value=3))
def test_agp_targets_equal_reference(rows, threshold):
    _check_agp_targets(rows, threshold)


@settings(max_examples=100, deadline=None)
@given(agp_blocks(), st.integers(min_value=1, max_value=3))
def test_agp_targets_equal_reference_across_profile_flushes(rows, threshold):
    # with a two-entry profile cache most queries find the bit numbering
    # flushed since the representatives were prepared, so AGP's passes run
    # on re-profiled stale sets
    with mock.patch.object(engine_module, "_DERIVED_CACHE_LIMIT", 2):
        _check_agp_targets(rows, threshold)


def _check_agp_targets(rows, threshold):
    def build() -> Block:
        block = Block(FunctionalDependency(["A"], ["B"], name="r"))
        for tid, (a, b) in enumerate(rows):
            block.add_tuple(tid, {"A": a, "B": b})
        return block

    config = MLNCleanConfig(abnormal_threshold=threshold)
    outcome = AbnormalGroupProcessor(config).process_block(build())
    reference = build()
    if all(group.tuple_count <= threshold for group in reference.groups.values()):
        assert outcome.merges == []
        return
    expected = reference_agp_targets(reference, threshold)
    assert [merge.target_key for merge in outcome.merges] == expected


# ----------------------------------------------------------------------
# reference Algorithm 3: every tuple-to-centroid distance from the metric
# ----------------------------------------------------------------------
def reference_partition(table: Table, parts: int, seed: int, metric):
    """Per part, the member tids and the max-heap of ``(-distance, tid)``."""
    tids = table.tids
    parts = min(parts, len(tids))
    capacity = math.ceil(len(tids) / parts)
    values = {tid: table.row(tid).values_for(table.schema.attributes) for tid in tids}
    centroids = random.Random(seed).sample(tids, parts)
    members = [[tid] for tid in centroids]
    heaps = [[(0.0, tid)] for tid in centroids]

    def distance(tid, part):
        return metric.values_distance(values[tid], values[centroids[part]])

    def place(tid, candidates):
        best = min(candidates, key=lambda part: (distance(tid, part), part))
        members[best].append(tid)
        heapq.heappush(heaps[best], (-distance(tid, best), tid))

    for tid in tids:
        if tid in centroids:
            continue
        closest = min(range(parts), key=lambda part: (distance(tid, part), part))
        if len(members[closest]) < capacity:
            place(tid, [closest])
            continue
        top_negative, top_tid = heaps[closest][0]
        displaced = tid
        if distance(tid, closest) < -top_negative:
            heapq.heapreplace(heaps[closest], (-distance(tid, closest), tid))
            members[closest].remove(top_tid)
            members[closest].append(tid)
            displaced = top_tid
        open_parts = [part for part in range(parts) if len(members[part]) < capacity]
        place(displaced, open_parts or range(parts))
    return members, heaps


@st.composite
def partition_tables(draw):
    """Tables drawn from a few rows over few letters: duplicate rows and ties."""
    cell = st.text(alphabet="ab", max_size=3)
    pool = draw(st.lists(st.tuples(cell, cell), min_size=1, max_size=6))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=24))
    return Table.from_records([{"A": a, "B": b} for a, b in rows])


@pytest.mark.parametrize("metric_name", ["levenshtein", "damerau"])
@settings(max_examples=150, deadline=None)
@given(
    partition_tables(),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=1000),
)
@example(Table.from_records([{"A": "", "B": ""}] * 5), 2, 0)
def test_partition_equals_reference(metric_name, table, parts, seed):
    metric = get_metric(metric_name)
    heaps: dict = {}
    insert = DataPartitioner._insert

    def recording_insert(partition, heap, tid, distance):
        heaps[partition.index] = heap
        insert(partition, heap, tid, distance)

    partitioner = DataPartitioner(
        parts, engine=engine_module.DistanceEngine(metric), seed=seed
    )
    with mock.patch.object(DataPartitioner, "_insert", staticmethod(recording_insert)):
        result = partitioner.partition(table)
    members, expected_heaps = reference_partition(table, parts, seed, metric)
    assert [partition.member_tids for partition in result.partitions] == members
    for index, partition in enumerate(result.partitions):
        # a part nothing was inserted into still holds only its centroid
        heap = heaps.get(index, [(0.0, partition.centroid_tid)])
        assert heap == expected_heaps[index]


@st.composite
def long_value_tables(draw):
    """Tables of long Unicode values: kernel lanes span several int digits."""
    cell = st.text(alphabet=_SMALL_ALPHABET, max_size=70)
    pool = draw(st.lists(st.tuples(cell, cell), min_size=1, max_size=6))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=24))
    return Table.from_records([{"A": a, "B": b} for a, b in rows])


@settings(max_examples=100, deadline=None)
@given(
    long_value_tables(),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=1000),
)
def test_partition_of_long_unicode_values_equals_reference(table, parts, seed):
    metric = get_metric("levenshtein")
    partitioner = DataPartitioner(
        parts, engine=engine_module.DistanceEngine(metric), seed=seed
    )
    result = partitioner.partition(table)
    members, _ = reference_partition(table, parts, seed, metric)
    assert [partition.member_tids for partition in result.partitions] == members
