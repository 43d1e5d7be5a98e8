"""Unit tests for MLN grounding (the MLN index) and weight learning."""

import pytest
from hypothesis import given, strategies as st

from repro.constraints.rules import FunctionalDependency
from repro.core.index import MLNIndex
from repro.core.rsc import ReliabilityScoreCleaner
from repro.mln.weights import WeightLearningConfig, learn_group_weights


def _learned_block(table, fd):
    """The one block of ``fd`` over ``table``, with its γ weights learned."""
    block = MLNIndex.build(table, [fd]).block_list[0]
    ReliabilityScoreCleaner().learn_block_weights(block)
    return block


def _pieces(table, fd):
    """``{reason + result values: γ}`` of the block of ``fd`` over ``table``."""
    block = _learned_block(table, fd)
    return {piece.reason_values + piece.result_values: piece for piece in block.pieces}


# ----------------------------------------------------------------------
# grounding
# ----------------------------------------------------------------------
def test_ground_rule_matches_table3(sample_table):
    fd = FunctionalDependency(["CT"], ["ST"], name="r1")
    pieces = _pieces(sample_table, fd)
    supports = {combo: piece.support for combo, piece in pieces.items()}
    assert supports == {
        ("DOTHAN", "AL"): 2,
        ("DOTH", "AL"): 1,
        ("BOAZ", "AK"): 1,
        ("BOAZ", "AL"): 2,
    }


# ----------------------------------------------------------------------
# weights
# ----------------------------------------------------------------------
def test_lone_gamma_keeps_its_eq4_prior(sample_table):
    # a lone γ's optimum is its Eq.-4 prior c(γ)/Σc over the block's 6 tuples
    fd = FunctionalDependency(["CT"], ["ST"])
    pieces = _pieces(sample_table, fd)
    assert pieces[("DOTH", "AL")].weight == pytest.approx(1 / 6)
    assert pieces[("DOTHAN", "AL")].weight == pytest.approx(2 / 6)


def test_learner_ranks_supported_gamma_higher(sample_table):
    fd = FunctionalDependency(["CT"], ["ST"])
    pieces = _pieces(sample_table, fd)
    assert pieces[("BOAZ", "AL")].weight > pieces[("BOAZ", "AK")].weight


def test_learn_group_weights_orders_by_count():
    counts = {"g": {("a",): 30, ("b",): 2, ("c",): 1}}
    priors = {("a",): 0.9, ("b",): 0.06, ("c",): 0.03}
    weights = learn_group_weights(counts, priors)
    assert weights[("a",)] > weights[("b",)] >= weights[("c",)]


def test_learn_group_weights_respects_max_weight():
    config = WeightLearningConfig(max_weight=3.0)
    counts = {"g": {("a",): 1000, ("b",): 1}}
    weights = learn_group_weights(counts, {("a",): 0.99, ("b",): 0.01}, config)
    assert abs(weights[("a",)]) <= 3.0
    assert abs(weights[("b",)]) <= 3.0


def test_learn_group_weights_empty():
    assert learn_group_weights({}, {}) == {}


def test_learn_group_weights_rejects_a_key_shared_by_two_groups():
    counts = {"g1": {("a",): 3, ("b",): 1}, "g2": {("c",): 2, ("a",): 1}}
    with pytest.raises(ValueError, match="two groups"):
        learn_group_weights(counts, {})


@pytest.mark.parametrize(
    "field, value",
    [
        ("prior_strength", 0.0),
        ("prior_strength", -1.0),
        ("max_weight", 0.0),
        ("max_iterations", 0),
        ("tolerance", 0.0),
    ],
)
def test_weight_learning_config_validates(field, value):
    with pytest.raises(ValueError, match=field):
        WeightLearningConfig(**{field: value})


@pytest.mark.parametrize("removed", ["damping", "max_step"])
def test_weight_learning_config_rejects_removed_knobs(removed):
    with pytest.raises(TypeError, match=removed):
        WeightLearningConfig(**{removed: 1.0})


def test_pipeline_config_builds_weight_learning_from_a_mapping():
    from repro.core.config import MLNCleanConfig

    config = MLNCleanConfig(weight_learning={"max_weight": 3.0})
    assert config.weight_learning == WeightLearningConfig(max_weight=3.0)
    with pytest.raises(ValueError, match="max_weight"):
        MLNCleanConfig(weight_learning={"max_weight": 0.0})


def _two_group_table(second=("x", "y|z")):
    """``A,B ⇒ C`` over groups ('x|y', 'z') and ``second``, with equal counts.

    With the default ``second`` both groups' reason values join to ``x|y|z``.
    """
    from repro.dataset.table import Table

    rows = [("x|y", "z", "1")] * 2 + [("x|y", "z", "2")]
    rows += [(*second, "3")] * 2 + [(*second, "4")]
    table = Table.from_records(
        [{"A": a, "B": b, "C": c} for a, b, c in rows], attributes=["A", "B", "C"]
    )
    return table, FunctionalDependency(["A", "B"], ["C"])


def _weights_by_group(table, fd):
    block = _learned_block(table, fd)
    return {
        group.key: {piece.support: piece.weight for piece in group.gammas}
        for group in block.group_list
    }


def test_groups_whose_keys_join_alike_keep_their_weights():
    colliding = _weights_by_group(*_two_group_table())
    assert set(colliding) == {("x|y", "z"), ("x", "y|z")}
    # same counts and priors, so the same weights
    assert colliding[("x|y", "z")] == colliding[("x", "y|z")]
    assert colliding[("x|y", "z")][2] > colliding[("x|y", "z")][1]
    # and the same weights as when the other group's values do not collide
    apart = _weights_by_group(*_two_group_table(second=("p", "q")))
    assert colliding[("x|y", "z")] == apart[("x|y", "z")]


def test_learner_converges_no_oscillation():
    # A very skewed group used to make an undamped diagonal-Newton step
    # oscillate and give the majority γ a large negative weight; the exact
    # Newton solve with its line search must keep it the largest weight.
    counts = {"g": {("clean",): 84, ("d1",): 2, ("d2",): 1, ("d3",): 1, ("d4",): 2}}
    priors = {key: count / 90 for key, count in counts["g"].items()}
    weights = learn_group_weights(counts, priors)
    assert weights[("clean",)] == max(weights.values())
    assert weights[("clean",)] > 0


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60))
def test_two_gamma_group_ordering_property(count_a, count_b):
    """In a two-γ group the learned weights must order like the counts."""
    counts = {"g": {("a",): count_a, ("b",): count_b}}
    total = count_a + count_b
    priors = {("a",): count_a / total, ("b",): count_b / total}
    weights = learn_group_weights(counts, priors)
    if count_a > count_b:
        assert weights[("a",)] >= weights[("b",)]
    elif count_b > count_a:
        assert weights[("b",)] >= weights[("a",)]
