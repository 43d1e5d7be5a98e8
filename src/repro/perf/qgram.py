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

A value tuple's profile is a triple ``(total, mask, length_mask)`` of ints,
its bits numbered by a dict the caller owns (each
:class:`~repro.perf.engine.DistanceEngine` keeps one for all its profiles):

* ``total`` is ``Σ_p len(values[p])``.
* ``length_mask`` writes each attribute's length in unary, one bit per
  ``(position, "", k)`` with ``k < len``, so ``Σ_p |Δlen_p|`` is
  ``popcount(a_length_mask ^ b_length_mask)`` and ``Σ_p min_len_p`` is
  ``popcount(a_length_mask & b_length_mask)``.
* ``mask`` is ``length_mask`` OR one bit per ``(position, char, k)``, the
  ``k``-th occurrence of ``char`` in attribute ``position``.  A string
  holding ``n`` copies of a character sets that character's bits ``k = 0 ..
  n-1``, so the character bits two profiles share count their positional
  multiset intersection ``S``.

The character keys and the length keys (``char == ""``) never collide, so
``popcount(a_mask & b_mask)`` is ``Σ_p min_len_p + S``, and with ``Σ_p
max_len_p = Σ len(x) + Σ len(y) - Σ_p min_len_p``

    Σ_p max_len_p - S = a_total + b_total - popcount(a_mask & b_mask).

Since ``S_p ≤ min_len_p`` at every position, ``max_len_p - S_p ≥
|Δlen_p|``: at ``ops = 1`` this term alone is the bound, one AND and one
popcount.  Metrics with ``ops > 1`` still take the larger of it (divided by
``ops``, rounded up) and the length term.

Every bit's key names its attribute position, so the bits of different
positions never overlap: :func:`build_profile` profiles one value at one
position, and a tuple's profile is the sum of its values' totals and the OR
of their masks.  The engine caches one such part per ``(position, value)``
and composes tuple profiles from them.  A mask means nothing under any
other numbering, so profiles must never outlive or cross the dict that
built them.

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


def _bin_popcount(value: int) -> int:
    """Set bits of a non-negative int on Pythons without ``int.bit_count``."""
    return bin(value).count("1")


#: ``int.bit_count`` on 3.10+; the ``bin`` fallback (3.9) is many times slower
popcount = getattr(int, "bit_count", _bin_popcount)


def build_profile(
    position: int, value: str, bits: "dict[tuple[int, str, int], int]"
) -> "tuple[int, int, int]":
    """The profile ``(len(value), mask, length_mask)`` of attribute ``position``.

    ``bits`` maps ``(position, char, k)`` to a bit index (``char`` is ``""``
    for the unary length bits, which ``mask`` holds too) and gains an entry,
    numbered ``len(bits)``, for every key it lacks.  Only profiles built
    through the same ``bits`` may be compared or composed.
    """

    def bit(key: "tuple[int, str, int]") -> int:
        index = bits.get(key)
        if index is None:
            index = bits[key] = len(bits)
        return 1 << index

    characters = length_mask = 0
    seen: "dict[str, int]" = {}
    for character in value:
        occurrence = seen.get(character, 0)
        seen[character] = occurrence + 1
        characters |= bit((position, character, occurrence))
    for k in range(len(value)):
        length_mask |= bit((position, "", k))
    return len(value), characters | length_mask, length_mask


def lower_bound(
    left: "tuple[int, int, int]", right: "tuple[int, int, int]", edit_ops: int
) -> float:
    """A lower bound of the ``values_distance`` of two profiled tuples."""
    left_total, left_mask, left_lengths = left
    right_total, right_mask, right_lengths = right
    # Σ_p max(len_left_p, len_right_p), less the positional multiset intersection
    missing = left_total + right_total - popcount(left_mask & right_mask)
    gram_bound = (missing + edit_ops - 1) // edit_ops
    return float(max(popcount(left_lengths ^ right_lengths), gram_bound))
