"""The engine contract every execution mode implements.

Two engine cores execute trigger programs — the single engine
(:class:`~repro.runtime.engine.IncrementalEngine` and its compiled subclass
:class:`~repro.codegen.engine.CompiledEngine`, whose subclass
:class:`~repro.exec.batching.BatchedEngine` only changes dispatch: runs of
same-trigger events instead of single events) and the hash-partitioned
:class:`~repro.exec.partitioning.PartitionedEngine`, which places single
engines — and everything built on top of them (the benchmark harness, the
serving layer in :mod:`repro.service`) treats them interchangeably.  :class:`EngineProtocol`
pins that surface down so conformance is checkable (``isinstance`` against
the runtime-checkable protocol, plus the behavioural contract test in
``tests/runtime/test_engine_contract.py``).

Beyond stream processing and view reads, the contract includes *durable
state*: :meth:`EngineProtocol.checkpoint_state` captures everything needed to
rebuild the engine's observable views (map contents, stored base relations,
the event count), and :meth:`EngineProtocol.restore_state` loads such a state
into a freshly built engine for the same program.  A state is always whole
(the service writes one at every checkpoint cut), so engines record nothing
per write for checkpointing.  Single-engine states (``kind: "single"``) are
interchangeable between the incremental, compiled and batched engines;
partitioned states (``kind: "partitioned"``) additionally carry one
single-engine state per partition and require an identical partition layout
on restore.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Protocol, Sequence, runtime_checkable

from repro.compiler.program import TriggerProgram
from repro.core.gmr import GMR
from repro.delta.events import StreamEvent

#: Version tag of the engine-state dictionaries produced by ``checkpoint_state``.
STATE_FORMAT = 1

#: ``kind`` of a state produced by a single (incremental / batched) engine.
STATE_SINGLE = "single"

#: ``kind`` of a state produced by a partitioned engine.
STATE_PARTITIONED = "partitioned"

#: Schema tag of every engine's ``statistics()`` document::
#:
#:     {"schema": "repro.stats/1",
#:      "mode": "incremental" | "compiled" | "batched" | "partitioned",
#:      "events_processed": int, "memory_bytes": int,
#:      "maps": {name: table stats}, "relations": {name: table stats},
#:      ["codegen": {...}], ["batching": {...}],
#:      ["partitioning": {"spec", "events_routed", "events_broadcast",
#:                        "flushes", "partitions": [one document each]}]}
STATS_SCHEMA = "repro.stats/1"


@runtime_checkable
class EngineProtocol(Protocol):
    """What every execution mode exposes to embedders and to the service layer."""

    program: TriggerProgram
    events_processed: int

    # -- data loading / stream processing ------------------------------------
    def load_static(
        self, relation: str, rows: Iterable[Sequence[Any] | Mapping[str, Any]]
    ) -> int: ...

    def apply(self, event: StreamEvent) -> None: ...

    def apply_many(self, events: Iterable[StreamEvent]) -> int: ...

    def flush(self) -> None: ...

    # -- reading views --------------------------------------------------------
    def view(self, name: str | None = None) -> GMR: ...

    def scalar_result(self, name: str | None = None) -> Any: ...

    def result_dict(self, name: str | None = None) -> dict[tuple, Any]: ...

    # -- accounting -----------------------------------------------------------
    def memory_bytes(self) -> int: ...

    def map_sizes(self) -> dict[str, int]: ...

    def statistics(self) -> dict[str, object]: ...

    def describe(self) -> str: ...

    # -- durable state / lifecycle -------------------------------------------
    def checkpoint_state(self) -> dict[str, Any]: ...

    def restore_state(self, state: Mapping[str, Any]) -> None: ...

    def close(self) -> None: ...
