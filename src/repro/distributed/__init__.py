"""Distributed MLNClean (Section 6 of the paper).

The paper deploys MLNClean on an 11-node Spark cluster.  Offline, this
package reproduces the *algorithmic* content of that deployment on a
simulated cluster:

* :mod:`repro.distributed.partition` — the capacity-bounded centroid
  partitioner of Algorithm 3,
* :mod:`repro.distributed.weights` — the Eq.-6 global weight adjustment that
  combines per-partition learned weights,
* :mod:`repro.distributed.executor` — a worker pool that runs the
  stand-alone Stage I on each partition and times it per worker slot,
* :mod:`repro.distributed.driver` — the end-to-end distributed pipeline:
  partition → per-worker Stage I → global weight fusion → Stage II
  (FSCR + dedup) on the gathered result.

Workers run in-process (sequentially), so reported *parallel* runtimes are
the simulated makespan (the slowest worker plus the driver phases); the
sequential total is also reported so the speedup shape of Table 6 can be
reproduced without a physical cluster.  The driver returns the same
:class:`~repro.core.report.CleaningReport` as every other backend, with the
simulation in ``report.details``.
"""

from repro.distributed.partition import DataPartitioner, PartitionResult
from repro.distributed.weights import GlobalWeightStore, fuse_weights
from repro.distributed.executor import SimulatedCluster
from repro.distributed.driver import DistributedMLNClean

__all__ = [
    "DataPartitioner",
    "PartitionResult",
    "GlobalWeightStore",
    "fuse_weights",
    "SimulatedCluster",
    "DistributedMLNClean",
]
