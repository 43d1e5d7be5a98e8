"""MLN weight learning.

The RSC stage of MLNClean multiplies a distance term by the Markov weight of
every piece of data (Definition 2 and Eq. 3).  The paper computes those
weights with "the MLN weight learning method from Tuffy, which adopts the
diagonal Newton method", starting from the prior of Eq. 4:

    w0_i = c(γ_i) / Σ_j c(γ_j)

where ``c(γ)`` is the number of tuples supporting γ and the sum ranges over
the distinct γs of the block.

This module implements that learner as a pseudo-likelihood optimiser.  Within
each group of a block the distinct γs compete to explain the observed tuples,
so the conditional likelihood of the evidence given the weights is the
multinomial

    L(w) = Σ_groups Σ_{γ in group} c(γ) · log softmax_group(w)_γ
           − (λ/2) · Σ_γ (w_γ − w0_γ)²

whose gradient and diagonal Hessian have closed forms; the learner performs
damped diagonal-Newton updates exactly in the spirit of Tuffy's learner.  The
learned weights preserve the property MLNClean relies on (Eq. 3): better
supported, more consistent γs receive larger weights.

The iteration runs over index arrays: each γ key gets a position once, each
group becomes ``(key positions, counts, total)``, and weights, gradient and
Hessian are plain lists.  The softmax normaliser is the builtin ``sum()``
over the group's keys in insertion order — the same float summation as a
per-group dict softmax (``sum()`` of floats is compensated from Python 3.12,
so a hand-written accumulation loop would not be), which keeps the learned
weights bit-stable across Python versions and refactors.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass

from repro.mln.grounding import GroundClause


@dataclass
class WeightLearningConfig:
    """Hyper-parameters of the diagonal-Newton pseudo-likelihood learner."""

    #: maximum number of Newton iterations
    max_iterations: int = 50
    #: convergence threshold on the max absolute weight change
    tolerance: float = 1e-6
    #: strength of the Gaussian prior pulling weights towards the Eq.-4 prior
    prior_strength: float = 1.0
    #: damping added to the Hessian diagonal for numerical stability
    damping: float = 1e-3
    #: cap on the absolute value of a learned weight
    max_weight: float = 25.0
    #: cap on the magnitude of one Newton step.  The diagonal Hessian
    #: underestimates the curvature of the group softmax, so an unbounded
    #: Newton step overshoots and oscillates; Tuffy damps its updates the
    #: same way.
    max_step: float = 2.0


def prior_weights(groundings: Sequence[GroundClause]) -> dict[GroundClause, float]:
    """The Eq.-4 prior: support of each γ over the total support of the block."""
    total = sum(g.support for g in groundings)
    if total == 0:
        return {g: 0.0 for g in groundings}
    return {g: g.support / total for g in groundings}


def learn_group_weights(
    group_counts: Mapping[Hashable, Mapping[tuple, int]],
    priors: Mapping[tuple, float],
    config: WeightLearningConfig | None = None,
) -> dict[tuple, float]:
    """Learn one weight per γ key from grouped support counts.

    ``group_counts`` maps a group identifier (any hashable, e.g. the group's
    reason-value tuple) to ``{γ key: tuple count}``; ``priors`` maps γ keys to
    their Eq.-4 prior.  Returns the learned weight per γ key, in first-seen
    key order.  This is the low-level entry point used by the
    :class:`DiagonalNewtonLearner`.
    """
    config = config or WeightLearningConfig()
    keys = dict.fromkeys(key for counts in group_counts.values() for key in counts)
    if not keys:
        return {}

    # Groups that share no γ key have fully independent likelihoods (a key's
    # gradient only ever involves its own group), so each such component is
    # converged separately.  This keeps a group's learned weights bit-stable
    # when *other* groups of the block change — without it, every group
    # would step for the same globally determined number of iterations and a
    # local change would perturb all weights of the block.  The incremental
    # engine (repro.streaming) relies on this stability to re-fuse only the
    # tuples whose weights actually moved.
    weights: dict[tuple, float] = {}
    for component in _key_disjoint_components(group_counts):
        weights.update(_learn_component(component, priors, config))
    return {key: weights[key] for key in keys}


def _key_disjoint_components(
    group_counts: Mapping[Hashable, Mapping[tuple, int]],
) -> list[list[Mapping[tuple, int]]]:
    """Partition the groups into components connected by shared γ keys."""
    components: list[list[Mapping[tuple, int]]] = []
    component_of_key: dict[tuple, int] = {}
    for counts in group_counts.values():
        if not counts:
            continue
        touched = sorted({component_of_key[k] for k in counts if k in component_of_key})
        if not touched:
            index = len(components)
            components.append([counts])
        else:
            # merge every touched component into the first one
            index = touched[0]
            components[index].append(counts)
            for other in touched[1:]:
                for moved in components[other]:
                    components[index].append(moved)
                    for key in moved:
                        component_of_key[key] = index
                components[other] = []
        for key in counts:
            component_of_key[key] = index
    return [component for component in components if component]


def _learn_component(
    component: list[Mapping[tuple, int]],
    priors: Mapping[tuple, float],
    config: WeightLearningConfig,
) -> dict[tuple, float]:
    """Damped diagonal-Newton iteration over one key-connected component."""
    position: dict[tuple, int] = {}
    groups: list[tuple[list[int], list[int], int]] = []
    for counts in component:
        indices = [position.setdefault(key, len(position)) for key in counts]
        groups.append((indices, list(counts.values()), sum(counts.values())))
    keys = list(position)
    prior = [priors.get(key, 0.0) for key in keys]
    weights = [float(value) for value in prior]
    strength = config.prior_strength
    damping = config.damping
    max_step = config.max_step
    max_weight = config.max_weight

    for _ in range(config.max_iterations):
        gradient = [0.0] * len(keys)
        hessian = [0.0] * len(keys)
        for indices, counts, total in groups:
            scores = [weights[i] for i in indices]
            peak = max(scores)
            exponentials = [math.exp(score - peak) for score in scores]
            normaliser = sum(exponentials)
            for i, count, exponential in zip(indices, counts, exponentials):
                p = exponential / normaliser
                gradient[i] += count - total * p
                hessian[i] += total * p * (1.0 - p)
        largest_change = 0.0
        for i, weight in enumerate(weights):
            grad = gradient[i] - strength * (weight - prior[i])
            hess = hessian[i] + strength + damping
            # each clip is max(-bound, min(bound, x)) spelled as the exact
            # comparisons those builtins make
            step = grad / hess
            step = step if step < max_step else max_step
            step = step if step > -max_step else -max_step
            new_weight = weight + step
            new_weight = new_weight if new_weight < max_weight else max_weight
            new_weight = new_weight if new_weight > -max_weight else -max_weight
            change = abs(new_weight - weight)
            if change > largest_change:
                largest_change = change
            weights[i] = new_weight
        if largest_change < config.tolerance:
            break
    return dict(zip(keys, weights))


class DiagonalNewtonLearner:
    """Weight learner over the groundings of one block of the MLN index.

    The learner groups the block's groundings by their reason values (the
    groups of the MLN index), computes the Eq.-4 prior, and runs the
    diagonal-Newton pseudo-likelihood optimisation.  The result is a weight
    per :class:`GroundClause` that the RSC and FSCR stages consume.
    """

    def __init__(self, config: WeightLearningConfig | None = None):
        self.config = config or WeightLearningConfig()
        #: number of Newton iterations performed in the last :meth:`learn` call
        self.last_iterations = 0

    def learn(self, groundings: Sequence[GroundClause]) -> dict[GroundClause, float]:
        """Learn and return the weight of every grounding of a block."""
        if not groundings:
            return {}
        priors_by_clause = prior_weights(groundings)
        by_key = {g.key: g for g in groundings}
        group_counts: dict[tuple, dict[tuple, int]] = {}
        for grounding in groundings:
            group_counts.setdefault(grounding.reason_values, {})[
                grounding.key
            ] = grounding.support
        priors = {g.key: priors_by_clause[g] for g in groundings}
        learned = learn_group_weights(group_counts, priors, self.config)
        weights = {by_key[key]: weight for key, weight in learned.items()}
        for grounding, weight in weights.items():
            grounding.clause.weight = weight
        return weights
