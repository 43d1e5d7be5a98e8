"""The positional unigram lower bound of the batch distance API.

The count-filtering bound (Gravano et al., approximate string joins) at
gram length 1, i.e. the bag distance: one edit operation destroys at most
one character occurrence, so two strings sharing ``S`` characters (counted
as a multiset intersection) satisfy

    ed(x, y) >= max(|x|, |y|) - S,

which combines with the length-difference bound ``|len(x) - len(y)|``.  For
value *tuples* (the γs of the MLN index) the per-attribute bounds add up:
characters are tagged with their attribute position so characters of
different attributes never count as shared, and the aggregate bound

    values_distance(x, y) >= max(Σ_p |Δlen_p|, ceil((Σ_p max_len_p - Σ_p S_p) / ops))

is a valid lower bound of the per-position sum (each summand bounds its
position's distance from below).

Metrics declare how many bound-destroying edit operations one of their
operations is worth via
:attr:`repro.distance.base.DistanceMetric.qgram_edit_ops` — ``1`` for plain
Levenshtein, ``2`` for restricted Damerau (a transposition is two
substitutions to Levenshtein, whose bound is the one actually applied) and
``None`` for metrics without a valid bound (cosine, jaccard), which
disables filtering entirely.

Everything here returns **lower bounds only**; the exact-or-prune discipline
of :class:`repro.perf.engine.DistanceEngine` stays intact because a
candidate is only skipped when its bound strictly exceeds the running
cutoff — exactly the pairs whose exact distance could never win.
"""

from __future__ import annotations

from collections.abc import Sequence


class ValueProfile:
    """The positional unigram profile of one value tuple."""

    __slots__ = ("values", "grams", "lengths")

    def __init__(
        self,
        values: "tuple[str, ...]",
        grams: "dict[tuple[int, str], int]",
        lengths: "tuple[int, ...]",
    ):
        self.values = values
        self.grams = grams
        self.lengths = lengths

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ValueProfile({self.values!r}, grams={len(self.grams)})"


def build_profile(values: "Sequence[str]") -> ValueProfile:
    """The positional unigram profile of ``values``.

    Characters are keyed ``(position, character)`` so attributes never
    share them.
    """
    grams: "dict[tuple[int, str], int]" = {}
    for position, value in enumerate(values):
        for character in value:
            key = (position, character)
            grams[key] = grams.get(key, 0) + 1
    return ValueProfile(tuple(values), grams, tuple(len(v) for v in values))


def lower_bound(left: ValueProfile, right: ValueProfile, edit_ops: int) -> float:
    """A lower bound of ``values_distance(left.values, right.values)``."""
    length_bound = 0
    gram_cap = 0
    for len_left, len_right in zip(left.lengths, right.lengths):
        bigger = len_left if len_left >= len_right else len_right
        length_bound += bigger - (len_left + len_right - bigger)
        gram_cap += bigger
    # the positional multiset intersection, walked from the smaller profile
    small, large = left.grams, right.grams
    if len(large) < len(small):
        small, large = large, small
    shared = 0
    for key, count in small.items():
        partner = large.get(key)
        if partner:
            shared += count if count < partner else partner
    bound = length_bound
    if gram_cap > shared:
        gram_bound = (gram_cap - shared + edit_ops - 1) // edit_ops
        if gram_bound > bound:
            bound = gram_bound
    return float(bound)
