"""Unit tests for the Markov logic substrate: formulas, grounding, weights, inference."""

import pytest
from hypothesis import given, strategies as st

from repro.constraints.rules import FunctionalDependency
from repro.mln.formula import Atom, Clause, Literal
from repro.mln.grounding import ground_rule, ground_rules, grounding_statistics
from repro.mln.inference import ExactInference, GibbsSampler
from repro.mln.network import MarkovLogicNetwork
from repro.mln.weights import (
    NewtonLearner,
    WeightLearningConfig,
    learn_group_weights,
    prior_weights,
)


# ----------------------------------------------------------------------
# formulas
# ----------------------------------------------------------------------
def test_atom_and_literal_rendering():
    atom = Atom("CT", "DOTHAN")
    assert atom.render() == 'CT("DOTHAN")'
    literal = Literal(atom, negated=True)
    assert literal.render() == '¬CT("DOTHAN")'
    assert literal.negate().negated is False


def test_literal_evaluation_defaults_to_false():
    atom = Atom("CT", "DOTHAN")
    assert Literal(atom).evaluate({}) is False
    assert Literal(atom, negated=True).evaluate({}) is True


def test_clause_satisfaction_and_identity():
    a, b = Atom("CT", "X"), Atom("ST", "Y")
    clause = Clause([Literal(a, negated=True), Literal(b)])
    assert clause.is_satisfied({a: False, b: False})
    assert clause.is_satisfied({a: True, b: True})
    assert not clause.is_satisfied({a: True, b: False})
    assert clause == Clause([Literal(a, negated=True), Literal(b)], weight=3.0)
    assert len(clause) == 2
    assert clause.atoms == [a, b]


def test_clause_requires_literals():
    with pytest.raises(ValueError):
        Clause([])


# ----------------------------------------------------------------------
# network
# ----------------------------------------------------------------------
def build_network():
    a, b = Atom("A", "x"), Atom("B", "y")
    network = MarkovLogicNetwork()
    network.add(Clause([Literal(a, negated=True), Literal(b)]), weight=2.0)
    network.add(Clause([Literal(a)]), weight=1.0)
    return network, a, b


def test_world_score_and_probability():
    network, a, b = build_network()
    assert network.world_score({a: True, b: True}) == pytest.approx(3.0)
    assert network.world_score({a: True, b: False}) == pytest.approx(1.0)
    total = sum(
        network.world_probability({a: va, b: vb})
        for va in (False, True)
        for vb in (False, True)
    )
    assert total == pytest.approx(1.0)


def test_partition_function_refuses_large_networks():
    network = MarkovLogicNetwork()
    for i in range(30):
        network.add(Clause([Literal(Atom("P", str(i)))]), weight=0.1)
    with pytest.raises(ValueError):
        network.log_partition_function()


def test_clauses_for_atom():
    network, a, b = build_network()
    assert len(network.clauses_for_atom(a)) == 2
    assert len(network.clauses_for_atom(b)) == 1


# ----------------------------------------------------------------------
# grounding
# ----------------------------------------------------------------------
def test_ground_rule_matches_table3(sample_table):
    fd = FunctionalDependency(["CT"], ["ST"], name="r1")
    groundings = ground_rule(fd, sample_table)
    combos = {(g.reason_values, g.result_values): g.support for g in groundings}
    assert combos == {
        (("DOTHAN",), ("AL",)): 2,
        (("DOTH",), ("AL",)): 1,
        (("BOAZ",), ("AK",)): 1,
        (("BOAZ",), ("AL",)): 2,
    }


def test_ground_rule_clause_shape(sample_table):
    fd = FunctionalDependency(["CT"], ["ST"])
    grounding = ground_rule(fd, sample_table)[0]
    rendered = grounding.clause.render()
    assert rendered.startswith("¬CT(")
    assert "ST(" in rendered


def test_ground_rules_and_statistics(sample_table, sample_rules):
    groundings = ground_rules(sample_rules, sample_table)
    assert set(groundings) == {"r1", "r2", "r3"}
    stats = grounding_statistics(groundings)
    assert stats["r1"]["groundings"] == 4
    assert stats["r1"]["groups"] == 3
    # r3 only covers the four ELIZA tuples
    assert stats["r3"]["support"] == 4


# ----------------------------------------------------------------------
# weights
# ----------------------------------------------------------------------
def test_prior_weights_eq4(sample_table):
    fd = FunctionalDependency(["CT"], ["ST"])
    groundings = ground_rule(fd, sample_table)
    priors = prior_weights(groundings)
    assert sum(priors.values()) == pytest.approx(1.0)
    by_combo = {g.reason_values + g.result_values: p for g, p in priors.items()}
    assert by_combo[("BOAZ", "AL")] == pytest.approx(2 / 6)


def test_learner_ranks_supported_gamma_higher(sample_table):
    fd = FunctionalDependency(["CT"], ["ST"])
    groundings = ground_rule(fd, sample_table)
    weights = NewtonLearner().learn(groundings)
    by_combo = {g.reason_values + g.result_values: w for g, w in weights.items()}
    assert by_combo[("BOAZ", "AL")] > by_combo[("BOAZ", "AK")]
    # the clause objects carry the learned weight too
    assert all(g.clause.weight == weights[g] for g in groundings)


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


def _learner_weights_by_group(table, fd):
    weights = NewtonLearner().learn(ground_rule(fd, table))
    by_group = {}
    for grounding, weight in weights.items():
        by_group.setdefault(grounding.reason_values, {})[grounding.support] = weight
    return by_group


def _rsc_weights_by_group(table, fd):
    from repro.core.index import MLNIndex
    from repro.core.rsc import ReliabilityScoreCleaner

    block = MLNIndex.build(table, [fd]).block_list[0]
    ReliabilityScoreCleaner().learn_block_weights(block)
    return {
        group.key: {piece.support: piece.weight for piece in group.gammas}
        for group in block.group_list
    }


@pytest.mark.parametrize(
    "weights_by_group", [_learner_weights_by_group, _rsc_weights_by_group]
)
def test_groups_whose_keys_join_alike_keep_their_weights(weights_by_group):
    colliding = weights_by_group(*_two_group_table())
    assert set(colliding) == {("x|y", "z"), ("x", "y|z")}
    # same counts and priors, so the same weights
    assert colliding[("x|y", "z")] == colliding[("x", "y|z")]
    assert colliding[("x|y", "z")][2] > colliding[("x|y", "z")][1]
    # and the same weights as when the other group's values do not collide
    apart = weights_by_group(*_two_group_table(second=("p", "q")))
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


# ----------------------------------------------------------------------
# inference
# ----------------------------------------------------------------------
def test_exact_inference_prefers_high_weight_atom():
    network, a, b = build_network()
    marginals = ExactInference(network).marginals()
    assert marginals[a] > 0.5
    assert marginals[b] > 0.5


def test_exact_inference_with_evidence():
    network, a, b = build_network()
    marginals = ExactInference(network).marginals(evidence={a: True})
    assert set(marginals) == {b}


def test_exact_map_state():
    network, a, b = build_network()
    state = ExactInference(network).map_state()
    assert state[a] is True
    assert state[b] is True


def test_gibbs_close_to_exact():
    network, a, b = build_network()
    exact = ExactInference(network).marginals()
    sampled = GibbsSampler(network, samples=2000, burn_in=200, seed=5).marginals()
    assert sampled[a] == pytest.approx(exact[a], abs=0.1)
    assert sampled[b] == pytest.approx(exact[b], abs=0.1)


def test_gibbs_validation():
    network, _, _ = build_network()
    with pytest.raises(ValueError):
        GibbsSampler(network, samples=0)


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
