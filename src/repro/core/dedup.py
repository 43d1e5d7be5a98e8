"""Duplicate elimination (the tail end of Stage II).

"After eliminating conflicts via FSCR, MLNClean automatically detects and
removes duplicate tuples" (Section 5.2).  In the running example t1/t2 and
t3..t6 collapse to one representative each once their values have been
repaired.  Duplicates are exact value matches over the full schema; the
lowest tuple id of each duplicate class is kept so downstream joins against
the dirty table remain possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dataset.table import Table


@dataclass
class DeduplicationResult:
    """Which tuples were kept and which were dropped as duplicates."""

    deduplicated: Table
    removed_tids: list[int] = field(default_factory=list)
    duplicate_classes: list[list[int]] = field(default_factory=list)

    @property
    def removed_count(self) -> int:
        return len(self.removed_tids)


def remove_duplicates(table: Table) -> DeduplicationResult:
    """Drop exact duplicate tuples, keeping the smallest tid of each class."""
    classes = table.duplicate_groups()
    removed: list[int] = []
    for tids in classes:
        keeper = min(tids)
        removed.extend(tid for tid in tids if tid != keeper)
    deduplicated = table.copy(name=f"{table.name}-dedup")
    deduplicated.remove_many(removed)
    return DeduplicationResult(
        deduplicated=deduplicated,
        removed_tids=sorted(removed),
        duplicate_classes=[sorted(tids) for tids in classes],
    )
