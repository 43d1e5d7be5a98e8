"""Incremental MLNClean for continuously arriving data.

Batch MLNClean assumes a static dirty table; this sub-package cleans
*micro-batches of tuple deltas* against an evolving one, re-deriving only
the state each batch invalidates:

* :mod:`repro.streaming.delta` — ``Insert`` / ``Update`` / ``Delete``
  records and the ``DeltaBatch`` micro-batch container,
* :mod:`repro.streaming.incremental_index` — the two-layer MLN index
  maintained per delta instead of rebuilt per run,
* :mod:`repro.streaming.cleaner` — :class:`StreamingMLNClean`, the
  micro-batch engine (block-granular Stage I, tuple-granular Stage II),
* :mod:`repro.streaming.window` — tumbling / sliding retention policies
  that evict expired tuples through the same delta path,
* :mod:`repro.streaming.source` — reproducible streams over the synthetic
  workload generators (errors included).

Replaying a table as deltas in ascending tuple-id order converges to the
same cleaned table as one batch run — see the module docs of
:mod:`repro.streaming.cleaner` for why, and ``tests/test_streaming.py``
for the equivalence proofs.
"""

from repro.streaming.cleaner import StreamingBatchReport, StreamingMLNClean
from repro.streaming.delta import (
    Delete,
    Delta,
    DeltaBatch,
    Insert,
    Update,
    delta_from_json_dict,
    delta_to_json_dict,
)
from repro.streaming.incremental_index import IncrementalMLNIndex
from repro.streaming.source import (
    StreamBatch,
    TableStreamSource,
    WorkloadStreamSource,
)
from repro.streaming.window import SlidingWindow, TumblingWindow, WindowPolicy

__all__ = [
    "Delta",
    "DeltaBatch",
    "Insert",
    "Update",
    "Delete",
    "delta_from_json_dict",
    "delta_to_json_dict",
    "IncrementalMLNIndex",
    "StreamingMLNClean",
    "StreamingBatchReport",
    "WindowPolicy",
    "TumblingWindow",
    "SlidingWindow",
    "StreamBatch",
    "TableStreamSource",
    "WorkloadStreamSource",
]
