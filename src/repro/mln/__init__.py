"""Markov logic network weight learning.

The paper builds MLNClean on top of Markov logic networks (Definition 1 and
Eq. 2) and borrows the weight learner of Tuffy.  The grounding is the MLN
index of :mod:`repro.core.index`: each rule's block holds one piece of data
γ per (reason, result) value pair, with its support and tuple ids.  This
package holds only the learner that weighs those γs:

* :mod:`repro.mln.weights` — the exact-Newton pseudo-likelihood learner,
  anchored at the Eq.-4 prior, that the RSC stage calls once per block.
"""

from repro.mln.weights import WeightLearningConfig, learn_group_weights

__all__ = ["WeightLearningConfig", "learn_group_weights"]
