"""Edit-distance metrics.

The Levenshtein distance is the paper's default metric: "the Levenshtein
distance just decides how many different characters between two strings,
regardless of the positions of those characters" (Section 7.3.3), which makes
it robust to typos wherever they occur in the value.

Both edit-distance variants strip common affixes with
:mod:`repro.distance.fastpath` first, so the distance-metric ablation
compares like with like.  Levenshtein then runs the bit-parallel kernel of
that module, the same one the :class:`repro.perf.DistanceEngine` runs under
a cutoff, and its batched rows run the module's multi-pattern kernel;
restricted Damerau keeps its full-matrix dynamic program.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.distance.base import DistanceMetric, register_metric
from repro.distance.fastpath import (
    levenshtein,
    levenshtein_rows,
    strip_common_affixes,
    trivial_edit_distance,
)


class LevenshteinDistance(DistanceMetric):
    """Classic Levenshtein (insert / delete / substitute) edit distance."""

    name = "levenshtein"
    #: common affix stripping preserves this metric's distances
    affix_safe = True
    #: one edit operation destroys at most one positional unigram
    qgram_edit_ops = 1

    def distance(self, left: str, right: str) -> float:
        return levenshtein(*strip_common_affixes(left, right))[0]

    def bounded_distance(
        self, left: str, right: str, cutoff: float = math.inf
    ) -> "tuple[float, bool]":
        return levenshtein(left, right, cutoff)

    def distance_rows(
        self, values: Sequence[str], others: Sequence[str]
    ) -> "list[list[float]]":
        return levenshtein_rows(values, others)

    def max_distance(self, left: str, right: str) -> float:
        return float(max(len(left), len(right), 1))


class DamerauLevenshteinDistance(DistanceMetric):
    """Levenshtein extended with adjacent-character transpositions.

    Not used by the paper, but a natural alternative for typo-heavy data; it is
    exposed so the distance-metric ablation can include it.  The restricted
    (optimal-string-alignment) variant is implemented; affix stripping is safe
    for it because a transposition never pays off across the boundary of a
    maximal common prefix or suffix.
    """

    name = "damerau"
    affix_safe = True
    #: the Levenshtein gram bound applies through d_lev <= 2 * d_damerau
    #: (a transposition is two substitutions to plain Levenshtein), so one
    #: restricted-Damerau operation may destroy up to 2 unigrams
    qgram_edit_ops = 2

    def distance(self, left: str, right: str) -> float:
        left, right = strip_common_affixes(left, right)
        trivial = trivial_edit_distance(left, right)
        if trivial is not None:
            return trivial
        return self._dp_distance(left, right)

    @staticmethod
    def _dp_distance(left: str, right: str) -> float:
        """The full-matrix restricted Damerau dynamic program."""
        len_l, len_r = len(left), len(right)
        # (len_l + 1) x (len_r + 1) matrix of the restricted Damerau distance.
        rows: list[list[int]] = [
            [0] * (len_r + 1) for _ in range(len_l + 1)
        ]
        for i in range(len_l + 1):
            rows[i][0] = i
        for j in range(len_r + 1):
            rows[0][j] = j
        for i in range(1, len_l + 1):
            for j in range(1, len_r + 1):
                cost = 0 if left[i - 1] == right[j - 1] else 1
                best = min(
                    rows[i - 1][j] + 1,
                    rows[i][j - 1] + 1,
                    rows[i - 1][j - 1] + cost,
                )
                if (
                    i > 1
                    and j > 1
                    and left[i - 1] == right[j - 2]
                    and left[i - 2] == right[j - 1]
                ):
                    best = min(best, rows[i - 2][j - 2] + 1)
                rows[i][j] = best
        return float(rows[len_l][len_r])

    def max_distance(self, left: str, right: str) -> float:
        return float(max(len(left), len(right), 1))


register_metric(LevenshteinDistance.name, LevenshteinDistance)
register_metric(DamerauLevenshteinDistance.name, DamerauLevenshteinDistance)
