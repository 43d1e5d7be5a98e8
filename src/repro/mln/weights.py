"""MLN weight learning.

The RSC stage of MLNClean multiplies a distance term by the Markov weight of
every piece of data (Definition 2 and Eq. 3).  The paper computes those
weights with "the MLN weight learning method from Tuffy, which adopts the
diagonal Newton method", starting from the prior of Eq. 4:

    w0_i = c(γ_i) / Σ_j c(γ_j)

where ``c(γ)`` is the number of tuples supporting γ and the sum ranges over
the distinct γs of the block.

This module learns the weights as a penalised pseudo-likelihood.  Within
each group of a block the distinct γs compete to explain the group's T
tuples, so the objective of a group with counts ``c`` is the multinomial

    F(w) = Σ_i c_i·w_i − T·log Σ_i exp(w_i) − (λ/2)·‖w − w0‖²

subject to ``|w_i| <= max_weight``.  Its optimum preserves the property
MLNClean relies on (Eq. 3): better supported, more consistent γs receive
larger weights.  Every γ key holds its group's reason values, so no weight
is shared between groups and each group is solved on its own.  That also
keeps a group's weights bit-stable when *other* groups of the block change,
which the incremental engine (repro.streaming) relies on to re-fuse only the
tuples whose weights actually moved.

F is strictly concave for λ > 0.  With p = softmax(w) and the gradient
g = c − T·p − λ·(w − w0), its negated Hessian

    A = T·diag(p) + λ·I − T·p·pᵀ

is a diagonal plus a rank-one term, so the exact Newton step s = A⁻¹·g
follows from the Sherman–Morrison formula in O(n):

    D = T·p + λ,  u = p / D,  v = g / D,
    s = v + u · T·(pᵀv) / (1 − T·pᵀu)

The denominator equals λ·Σu (because Σp = 1) and is computed in that form,
so it never cancels.  Each iteration takes the Newton step with Armijo
backtracking and projects it onto the box (Bertsekas's projected Newton
method): a coordinate at or next to a bound whose gradient points outward
is held there, and the free coordinates solve the same
diagonal-plus-rank-one system, whose denominator gains the held
coordinates' probability mass.  The solve stops on the Newton decrement:
once gᵀs < tolerance² it takes the full step and returns.  The line search compares an objective *difference* built from
``expm1`` of the step, so rounding of F itself cannot reject a good step
near the optimum, and the accepted point's exponentials are reused by the
next gradient: one transcendental pass per iteration.

Departure from the paper: Tuffy takes damped diagonal-Newton steps, which
converge only linearly, until the steps are small or an iteration budget
runs out; here the same objective is solved to its optimum.  On the ``hai-batch`` perf workload the damped loop needed
21–50 iterations per group and 14 of 114 groups stopped at the
50-iteration cap, while the exact solve takes 684 iterations in all, at
most 9 per group.  The learned weights move by at most 1.6e-4 from the
damped loop's iterates, cleaned tables stay byte-identical on the four perf
workloads, and one tracked result cell moves:
``benchmarks/results/fig07.txt``, hai, FSCR precision at Rret = 1.0,
0.963 → 0.9623.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Mapping
from dataclasses import dataclass
from operator import add, mul, sub

#: sufficient-increase fraction of the Armijo line search
_ARMIJO = 1e-4
#: backtracking below this step fraction means the iterate is optimal to
#: rounding: no representable step along the Newton direction improves F
_MIN_FRACTION = 2.0**-40
#: largest distance to a bound, as a fraction of ``max_weight``, at which a
#: coordinate pushed outward by its gradient is held at the bound
_HOLD_MARGIN = 1e-3


@dataclass
class WeightLearningConfig:
    """Hyper-parameters of the exact-Newton pseudo-likelihood learner."""

    #: maximum number of Newton iterations per group
    max_iterations: int = 50
    #: the solve stops once the Newton decrement gᵀs drops below tolerance²
    tolerance: float = 1e-6
    #: strength λ of the Gaussian prior pulling weights towards the Eq.-4 prior
    prior_strength: float = 1.0
    #: cap on the absolute value of a learned weight
    max_weight: float = 25.0

    def __post_init__(self) -> None:
        # λ = 0 leaves F shift-invariant: A is singular and the
        # Sherman–Morrison denominator λ·Σu is 0
        if not self.prior_strength > 0:
            raise ValueError("prior_strength must be > 0")
        if not self.max_weight > 0:
            raise ValueError("max_weight must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")


def learn_group_weights(
    group_counts: Mapping[Hashable, Mapping[tuple, int]],
    priors: Mapping[tuple, float],
    config: WeightLearningConfig | None = None,
) -> dict[tuple, float]:
    """Learn one weight per γ key from grouped support counts.

    ``group_counts`` maps a group identifier (any hashable, e.g. the group's
    reason-value tuple) to ``{γ key: tuple count}``; ``priors`` maps γ keys to
    their Eq.-4 prior.  Returns the learned weight per γ key, in first-seen
    key order.  :meth:`repro.core.rsc.ReliabilityScoreCleaner.learn_block_weights`
    builds both mappings from one block of the MLN index.

    Raises :class:`ValueError` when a γ key appears in two groups: a γ is
    identified by its reason values, so it belongs to exactly one group.
    """
    config = config or WeightLearningConfig()
    weights: dict[tuple, float] = {}
    for group, counts in group_counts.items():
        if not weights.keys().isdisjoint(counts):
            shared = next(key for key in counts if key in weights)
            raise ValueError(f"γ key {shared!r} of group {group!r} is in two groups")
        weights.update(_solve_group(counts, priors, config))
    return weights


def _solve_group(
    counts: Mapping[tuple, int],
    priors: Mapping[tuple, float],
    config: WeightLearningConfig,
) -> dict[tuple, float]:
    """Projected exact-Newton maximisation of one group's objective F."""
    keys = list(counts)
    cap = config.max_weight
    prior = [float(priors.get(key, 0.0)) for key in keys]
    if len(keys) < 2:
        # a lone γ's gradient is λ·(w0 − w): its optimum is its (capped) prior
        return {key: max(-cap, min(cap, w0)) for key, w0 in zip(keys, prior)}
    weights = _project(prior, cap)
    supports = list(counts.values())
    total = sum(supports)
    strength = config.prior_strength
    # c + λ·w0: the gradient's constant part
    anchor = [c + strength * w0 for c, w0 in zip(supports, prior)]
    stop = config.tolerance * config.tolerance
    exponentials: list[float] = []

    for _ in range(config.max_iterations):
        normaliser = sum(exponentials)
        if not 1e-200 < normaliser < 1e200:
            # (re-)anchor the exponentials at the current peak
            peak = max(weights)
            exponentials = [math.exp(w - peak) for w in weights]
            normaliser = sum(exponentials)
        probabilities = [e / normaliser for e in exponentials]
        # c − λ·(w − w0), and the gradient c − T·p − λ·(w − w0)
        residual = [a - strength * w for a, w in zip(anchor, weights)]
        gradient = [r - total * p for r, p in zip(residual, probabilities)]
        step, held = _newton_step(weights, probabilities, gradient, total, strength, cap)
        if held is None:
            decrement = sum(map(mul, gradient, step))
        else:
            decrement = sum(g * s for g, s, h in zip(gradient, step, held) if not h)
        if decrement < stop:
            return dict(zip(keys, _project(list(map(add, weights, step)), cap)))

        fraction = 1.0
        while True:
            deltas = step if fraction == 1.0 else [fraction * s for s in step]
            trial = list(map(add, weights, deltas))
            projected = _project(trial, cap)
            if projected is not trial:
                trial = projected
                deltas = list(map(sub, trial, weights))
            # Bertsekas's sufficient increase: the Newton part's predicted
            # gain plus the held coordinates' first-order gain
            expected = fraction * decrement
            if held is not None:
                expected += sum(g * d for g, d, h in zip(gradient, deltas, held) if h)
            try:
                growth = [math.expm1(d) for d in deltas]
                # F(trial) − F(weights), from the step itself so it does not
                # cancel: Σ(c − λ(w − w0))·Δ − (λ/2)·‖Δ‖² − T·log Σ p·exp(Δ)
                gain = (
                    sum(map(mul, residual, deltas))
                    - 0.5 * strength * sum(map(mul, deltas, deltas))
                    - total * math.log1p(sum(map(mul, probabilities, growth)))
                )
            except (OverflowError, ValueError):
                gain = -math.inf
            if gain >= _ARMIJO * expected:
                break
            fraction *= 0.5
            if fraction < _MIN_FRACTION:
                return dict(zip(keys, weights))
        weights = trial
        if min(deltas) < -1.0:
            # e·(1 + expm1(Δ)) loses the small factor exp(Δ) to rounding
            exponentials = []
        else:
            exponentials = [e + e * m for e, m in zip(exponentials, growth)]
    return dict(zip(keys, weights))


def _newton_step(
    weights: list[float],
    probabilities: list[float],
    gradient: list[float],
    total: int,
    strength: float,
    cap: float,
) -> tuple[list[float], list[bool] | None]:
    """The projected-Newton direction and its held coordinates (Bertsekas).

    A coordinate within a margin of a bound whose gradient points out of the
    box is *held*: it takes a gradient step, which the projection stops at
    the bound.  The margin is ``_HOLD_MARGIN·cap`` at most and shrinks with
    the projected gradient, so the iterates cannot creep towards a bound
    without reaching it.  The free coordinates take A⁻¹·g of their principal
    subsystem, again a diagonal plus a rank-one term, by Sherman–Morrison.
    Returns ``held=None`` when no coordinate is near a bound.
    """
    diagonal = [total * p + strength for p in probabilities]
    u = [p / d for p, d in zip(probabilities, diagonal)]
    v = [g / d for g, d in zip(gradient, diagonal)]
    edge = cap - _HOLD_MARGIN * cap
    if max(weights) < edge and min(weights) > -edge:
        scale = total * sum(map(mul, probabilities, v)) / (strength * sum(u))
        return [x + y * scale for x, y in zip(v, u)], None
    margin = min(
        _HOLD_MARGIN * cap,
        max(abs(w - max(-cap, min(cap, w + g))) for w, g in zip(weights, gradient)),
    )
    held = [
        (w >= cap - margin and g > 0) or (w <= margin - cap and g < 0)
        for w, g in zip(weights, gradient)
    ]
    held_mass = sum(p for p, h in zip(probabilities, held) if h)
    denominator = held_mass + strength * sum(y for y, h in zip(u, held) if not h)
    pv = sum(p * x for p, x, h in zip(probabilities, v, held) if not h)
    scale = total * pv / denominator
    step = [g if h else x + y * scale for g, x, y, h in zip(gradient, v, u, held)]
    return step, held


def _project(weights: list[float], cap: float) -> list[float]:
    """Clip every weight into ``[-cap, cap]``."""
    if max(weights) <= cap and min(weights) >= -cap:
        return weights
    return [cap if w > cap else -cap if w < -cap else w for w in weights]

