"""A simulated worker pool.

The paper runs MLNClean on a Spark cluster with up to ten workers; offline,
the same *algorithm* is exercised by running each worker's task in-process
and recording its wall-clock time separately.  Two aggregate runtimes are
derived from the per-task timings:

* ``sequential_seconds`` — the plain sum (what a single machine pays), and
* ``makespan_seconds`` — the slowest worker of each phase (what a cluster
  with one task per worker would pay, ignoring network shuffle cost).

Table 6 of the paper (runtime vs. number of workers) is reproduced with the
makespan figure.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from typing import TypeVar

TaskInput = TypeVar("TaskInput")
TaskOutput = TypeVar("TaskOutput")


class SimulatedCluster:
    """Runs map phases over partitions, one task per (simulated) worker."""

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("a cluster needs at least one worker")
        self.workers = workers
        #: total compute across all phases and workers
        self.sequential_seconds = 0.0
        #: simulated parallel runtime: per-phase slowest worker, summed
        self.makespan_seconds = 0.0

    def map(
        self,
        task: Callable[[TaskInput], TaskOutput],
        inputs: Sequence[TaskInput],
    ) -> list[TaskOutput]:
        """Apply ``task`` to every input, timing each application.

        Inputs beyond the worker count still run (they model multiple tasks
        queued on the same worker); the makespan accounts for that by summing
        the times of tasks assigned to the same worker slot round-robin.
        """
        outputs: list[TaskOutput] = []
        slot_times = [0.0] * self.workers
        for index, item in enumerate(inputs):
            started = time.perf_counter()
            outputs.append(task(item))
            slot_times[index % self.workers] += time.perf_counter() - started
        self.sequential_seconds += sum(slot_times)
        self.makespan_seconds += max(slot_times)
        return outputs
