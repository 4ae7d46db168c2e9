"""Batched & partitioned delta execution (the scale-out subsystem).

Two policies over the per-event engine, one for dispatch, one for placement:

* :class:`~repro.exec.batching.BatchedEngine` is a
  :class:`~repro.codegen.engine.CompiledEngine` that partitions agenda
  slices into runs of same-trigger events and dispatches each run once;
* :class:`~repro.exec.partitioning.PartitionedEngine` hash-partitions map
  state and base relations across per-partition engines and merges views on
  read (with a broadcast path for non-partitionable relations);
* :mod:`repro.exec.executor` builds the partition engines, in this process
  or each behind a worker-process stub.

Both engines expose the same ``apply`` / ``view`` / ``result_dict`` surface
as the per-event engine and produce identical view contents; see DESIGN.md
for the exactness argument.
"""

from repro.exec.batching import (
    DEFAULT_BATCH_SIZE,
    BatchedEngine,
    BatchPlan,
    DeltaGroup,
    StagedBatch,
    TriggerAnalysis,
)
from repro.exec.partitioning import (
    DEFAULT_PARTITIONS,
    PartitionedEngine,
    PartitionSpec,
    infer_partition_spec,
    stable_hash,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_PARTITIONS",
    "BatchPlan",
    "BatchedEngine",
    "DeltaGroup",
    "PartitionSpec",
    "PartitionedEngine",
    "StagedBatch",
    "TriggerAnalysis",
    "infer_partition_spec",
    "stable_hash",
]
