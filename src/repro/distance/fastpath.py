"""Shared algorithmic fast paths for edit-distance metrics.

Factored out so the Levenshtein and Damerau-Levenshtein metrics (and the
:class:`repro.perf.DistanceEngine` wrapping them) all run through the
identical preprocessing:

* **common affix stripping** — characters shared at the start and end of both
  strings never participate in an optimal edit script, so they are removed
  before any distance is computed.  Safe for plain Levenshtein and for the
  restricted Damerau variant (a transposition never spans the boundary of a
  maximal common affix).
* **length-difference lower bound** — ``|len(a) − len(b)| ≤ d(a, b)``, which
  settles one-sided-empty cases outright and lets a bounded search refuse
  obviously-far pairs without running the kernel.
* **bit-parallel Levenshtein kernel** — :func:`levenshtein` is Myers'
  bit-vector algorithm (G. Myers, JACM 1999) in Hyyrö's formulation for the
  edit distance (H. Hyyrö, 2003).  One DP column is held as two bit vectors
  of vertical +1/−1 deltas, so a text character costs a handful of integer
  operations instead of a row of the matrix.  Python ints are the bit
  vectors, so the pattern length is unbounded.  Under a cutoff the kernel
  exits early once the score can no longer come back within it.
"""

from __future__ import annotations

import math


def strip_common_affixes(left: str, right: str) -> "tuple[str, str]":
    """Remove the longest common prefix and suffix of the two strings.

    Distance-preserving for the Levenshtein family: an optimal edit script
    can always keep shared leading/trailing characters untouched.
    """
    if not left or not right:
        return left, right
    # common prefix
    start = 0
    limit = min(len(left), len(right))
    while start < limit and left[start] == right[start]:
        start += 1
    # common suffix (never overlapping the stripped prefix)
    end_left, end_right = len(left), len(right)
    while (
        end_left > start
        and end_right > start
        and left[end_left - 1] == right[end_right - 1]
    ):
        end_left -= 1
        end_right -= 1
    return left[start:end_left], right[start:end_right]


def trivial_edit_distance(left: str, right: str) -> "float | None":
    """The edit distance of an affix-stripped pair when no kernel is needed.

    ``None`` means both sides are non-empty and the distance must be
    computed.  After affix stripping, one-sided-empty pairs cost exactly the
    length of the other side (pure insertions/deletions) for Levenshtein and
    for the restricted Damerau variant alike.
    """
    if left == right:
        return 0.0
    if not left:
        return float(len(right))
    if not right:
        return float(len(left))
    return None


def levenshtein(
    left: str, right: str, cutoff: float = math.inf
) -> "tuple[float, bool]":
    """Levenshtein distance with an early exit above ``cutoff``.

    Returns ``(value, exact)``.  After each character of the shorter string
    (the text), the last DP row's score minus the text characters still to
    read is a true lower bound of the distance, because each character moves
    the score by at most one.  Once that bound exceeds ``cutoff`` the run
    stops and returns it with ``exact=False``.  A run that completes is
    exact, so the distance comes back exactly whenever it is ``≤ cutoff``.
    """
    if len(left) < len(right):
        left, right = right, left
    # the longer string is the pattern: bit i of peq[c] says left[i] == c
    peq: dict = {}
    bit = 1
    for char in left:
        peq[char] = peq.get(char, 0) | bit
        bit <<= 1
    full = bit - 1
    last = bit >> 1
    # vertical +1 / -1 deltas of the current DP column (column 0 is 0..m)
    positive, negative = full, 0
    # the score D[m, j] minus the len(right) - j text characters still to read
    bound = len(left) - len(right)
    for char in right:
        eq = peq.get(char, 0)
        diagonal = (((eq & positive) + positive) ^ positive) | eq | negative
        horizontal_pos = negative | ~(diagonal | positive)
        horizontal_neg = diagonal & positive
        if horizontal_pos & last:
            bound += 2
        elif not horizontal_neg & last:
            bound += 1
        horizontal_pos = (horizontal_pos << 1) | 1
        horizontal_neg <<= 1
        positive = (horizontal_neg | ~(diagonal | horizontal_pos)) & full
        negative = horizontal_pos & diagonal
        if bound > cutoff:
            return float(bound), False
    return float(bound), True
