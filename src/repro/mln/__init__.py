"""Markov logic network substrate.

The paper builds MLNClean on top of Markov logic networks (Definition 1 and
Eq. 2) and borrows the weight learner of Tuffy.  Because no
external MLN engine is available offline, this package implements the pieces
MLNClean needs from scratch:

* :mod:`repro.mln.formula` — ground atoms, literals, and weighted clauses,
* :mod:`repro.mln.network` — the :class:`MarkovLogicNetwork` container with
  the log-linear world distribution of Eq. 2,
* :mod:`repro.mln.grounding` — grounding of FD / CFD / DC rules against a
  table (Table 3 of the paper),
* :mod:`repro.mln.weights` — the Eq. 4 prior and the exact-Newton
  pseudo-likelihood weight learner used by the RSC stage,
* :mod:`repro.mln.inference` — exact enumeration and Gibbs-sampling marginal
  inference, used by tests and the probabilistic baseline.
"""

from repro.mln.formula import Atom, Literal, Clause
from repro.mln.network import MarkovLogicNetwork
from repro.mln.grounding import GroundClause, ground_rule, ground_rules
from repro.mln.weights import (
    NewtonLearner,
    WeightLearningConfig,
    prior_weights,
    learn_group_weights,
)
from repro.mln.inference import ExactInference, GibbsSampler

__all__ = [
    "Atom",
    "Literal",
    "Clause",
    "MarkovLogicNetwork",
    "GroundClause",
    "ground_rule",
    "ground_rules",
    "NewtonLearner",
    "WeightLearningConfig",
    "prior_weights",
    "learn_group_weights",
    "ExactInference",
    "GibbsSampler",
]
