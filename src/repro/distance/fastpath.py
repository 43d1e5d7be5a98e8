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
* **multi-pattern kernel** — :func:`levenshtein_rows` packs many patterns
  into one word (H. Hyyrö, K. Fredriksson and G. Navarro, "Increased
  bit-parallelism for approximate and multiple string matching", JEA 2006)
  and runs the same step once per text character for all of them.  Each
  pattern owns a lane of ``len(p)`` bits followed by one guard bit.  The
  guard is never set in the vertical +1 vector ``P`` (it is masked with
  ``full``, the lane bits), so the carry of the step's add stops there, and
  the shifted horizontal −1 vector, built from ``D0 & P``, brings a 0 into
  each lane's bit 0.  The shifted horizontal +1 vector gets the row-0
  boundary, a 1 in each lane's bit 0, ORed in.  Every other operation is
  bitwise, so whatever the guards collect never reaches a lane, and the
  loop does no per-lane work.  One run measures all the distinct values of
  an attribute against one other value.
"""

from __future__ import annotations

import math
from collections.abc import Sequence


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


def levenshtein_rows(
    patterns: "Sequence[str]", texts: "Sequence[str]"
) -> "list[list[float]]":
    """``rows[i][j]`` is the Levenshtein distance of ``patterns[i]`` and ``texts[j]``.

    The non-empty patterns are packed into lanes of one word; each text then
    makes one pass of the step of :func:`levenshtein` over all lanes at once.
    Lane ``i`` ends as ``len(text) + popcount(P_i) − popcount(N_i)``: the
    top-row score plus the lane's vertical deltas.  An empty pattern is
    ``len(text)`` away from every text, and an empty text leaves each lane
    at ``len(pattern)``.
    """
    rows = [[float(len(text)) for text in texts] for _ in patterns]
    lanes = [index for index, pattern in enumerate(patterns) if pattern]
    if not lanes:
        return rows
    lows = full = 0
    offset = 0
    for index in lanes:
        lows |= 1 << offset
        full |= ((1 << len(patterns[index])) - 1) << offset
        offset += len(patterns[index]) + 1
    width = offset
    # The packed word as a binary string, most significant bit first: lane 0
    # comes last, each lane reversed and preceded by its guard ("\0", whose
    # mask may set guard bits; they never reach a lane).  One translate per
    # character gives its peq mask.
    packed = "\0" + "\0".join(patterns[index][::-1] for index in reversed(lanes))
    alphabet = set(packed)
    digits = dict.fromkeys(map(ord, alphabet), "0")
    peq: dict = {}
    for char in alphabet:
        digits[ord(char)] = "1"
        peq[char] = int(packed.translate(digits), 2)
        digits[ord(char)] = "0"
    for column, text in enumerate(texts):
        positive, negative = full, 0
        for char in text:
            eq = peq.get(char, 0)
            diagonal = (((eq & positive) + positive) ^ positive) | eq | negative
            horizontal_pos = (negative | ~(diagonal | positive)) << 1 | lows
            horizontal_neg = (diagonal & positive) << 1
            positive = (horizontal_neg | ~(diagonal | horizontal_pos)) & full
            negative = horizontal_pos & diagonal
        # lane spans exclude the guards, so ``negative`` needs no mask
        ones = format(positive, f"0{width}b")
        minus = format(negative, f"0{width}b")
        end = width
        for index in lanes:
            start = end - len(patterns[index])
            rows[index][column] = float(
                len(text) + ones.count("1", start, end) - minus.count("1", start, end)
            )
            end = start - 1
    return rows
