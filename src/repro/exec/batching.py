"""Batched delta execution: apply triggers once per delta batch, not per event.

A per-event engine runs every trigger statement once per stream event, and
much of that cost is fixed overhead — trigger lookup, dispatch, key-row
construction — that is identical across events.  This module coalesces a
slice of the agenda into per-relation *delta GMRs* (Section 3.4's bulk
updates made concrete: tuple -> folded multiplicity) and applies each trigger
once per batch.

Exactness is never traded for speed.  A static analysis decides, per trigger,
whether bulk application is equivalent to sequential application:

* a trigger is **bulk-safe** when none of its ``+=`` statements read a map the
  same trigger writes, none read the triggering base relation itself, and its
  ``:=`` statements do not depend on the trigger variables.  For such triggers
  the per-tuple deltas are independent of the order in which the batch's
  events are applied, so one pass per statement over the folded delta (scaled
  by each tuple's multiplicity) produces exactly the sequential result.
* all other triggers (self-joins, nested-aggregate view maintenance, ...)
  fall back to per-event application *inside the batch*, preserving order.

Batches additionally merge non-adjacent events of the same (relation, sign)
when the intervening triggers *commute* (their read/write sets are disjoint),
which turns the short per-relation runs of realistic streams into large
foldable groups.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Iterable, Sequence

from repro.agca.ast import free_variables
from repro.codegen.engine import CompiledEngine
from repro.codegen.vector import (
    ColumnBatch,
    VectorFallback,
    try_compile_vector,
    vector_unavailable_reason,
)
from repro.compiler.program import ASSIGN, INCREMENT, Statement, TriggerProgram
from repro.core.gmr import GMR
from repro.core.rows import Row
from repro.delta.events import StreamEvent
from repro.errors import ExecutionError

#: Default number of events coalesced into one delta batch.
DEFAULT_BATCH_SIZE = 100

#: Smallest folded group dispatched to the vector backend.  Below this the
#: fixed numpy kernel-invocation cost (array wrapping, mask allocation, probe
#: setup) exceeds the scalar loop's total work, so tiny groups — the common
#: shape when interleaved multi-relation streams fold into many short runs —
#: stay on the compiled statement runners.  Breakeven sits around 6-10 rows
#: per group.
DEFAULT_MIN_VECTOR_ROWS = 16

#: How many trailing groups the folder scans for a commuting merge target.
_MERGE_LOOKBACK = 8

TriggerKey = tuple[str, int]


class TriggerAnalysis:
    """Static bulk-safety and statement classification for one trigger."""

    def __init__(self, program: TriggerProgram, relation: str, sign: int) -> None:
        self.relation = relation
        self.sign = sign
        trigger = program.trigger_for(sign, relation)
        statements: Sequence[Statement] = trigger.statements if trigger else ()
        self.increments = [s for s in statements if s.operation == INCREMENT]
        self.assigns = [s for s in statements if s.operation == ASSIGN]

        self.writes = frozenset(s.target for s in statements)
        self.assign_targets = frozenset(s.target for s in self.assigns)
        self.reads_maps = frozenset().union(*(s.reads_maps() for s in statements)) \
            if statements else frozenset()
        self.reads_relations = frozenset().union(*(s.reads_relations() for s in statements)) \
            if statements else frozenset()
        self.updates_base = relation in program.requires_base_relations()

        self.safe = self._bulk_safe()
        self._program = program
        self._vector: dict[int, Any] | None = None

    def vector_kernels(self) -> dict[int, Any]:
        """Columnar batch kernels by ``id(statement)`` (compiled lazily).

        Only bulk-safe triggers qualify (vector application is one pass per
        statement over the folded delta, which is exactly the bulk
        contract); within them, any ``+=`` statement the vector emitter can
        lower gets a kernel, the rest stay on their statement runners.
        Without numpy nothing compiles and the dictionary is empty.
        """
        if self._vector is None:
            kernels: dict[int, Any] = {}
            if self.safe:
                for statement in self.increments:
                    kernel = try_compile_vector(statement, self._program)
                    if kernel is not None:
                        kernels[id(statement)] = kernel
            self._vector = kernels
        return self._vector

    def _bulk_safe(self) -> bool:
        for statement in self.increments:
            if statement.reads_maps() & self.writes:
                return False
            if self.relation in statement.reads_relations():
                return False
        for statement in self.assigns:
            trigger_vars = set(statement.event.trigger_vars)
            if free_variables(statement.expr) & trigger_vars:
                return False
            if any(key in trigger_vars for key in statement.target_keys):
                return False
        return True

    def commutes_with(self, other: "TriggerAnalysis") -> bool:
        """True when this trigger and ``other`` can be applied in either order."""
        if self.reads_maps & other.writes or other.reads_maps & self.writes:
            return False
        if self.updates_base and other.reads_relations & {self.relation}:
            return False
        if other.updates_base and self.reads_relations & {other.relation}:
            return False
        shared_writes = self.writes & other.writes
        if shared_writes & (self.assign_targets | other.assign_targets):
            return False
        return True


class DeltaGroup:
    """A maximal reorderable run of events sharing one (relation, sign) key.

    Bulk-safe groups fold events into ``tuple -> multiplicity``; unsafe groups
    keep the raw ordered event list for per-event replay.
    """

    __slots__ = ("relation", "sign", "key", "count", "folded", "events")

    def __init__(self, relation: str, sign: int, safe: bool) -> None:
        self.relation = relation
        self.sign = sign
        self.key: TriggerKey = (relation, sign)
        self.count = 0
        self.folded: dict[tuple, int] | None = {} if safe else None
        self.events: list[StreamEvent] | None = None if safe else []

    def add(self, event: StreamEvent) -> None:
        self.count += 1
        if self.folded is not None:
            self.folded[event.values] = self.folded.get(event.values, 0) + 1
        else:
            self.events.append(event)

    def delta_gmr(self, columns: Sequence[str]) -> GMR:
        """The group's delta as a signed GMR over the relation's columns."""
        if self.folded is not None:
            items = ((values, self.sign * mult) for values, mult in self.folded.items())
        else:
            items = ((event.values, self.sign) for event in self.events)
        return GMR((Row(zip(columns, values)), mult) for values, mult in items)


class BatchPlan:
    """Per-program analysis driving batched execution (shared across engines)."""

    def __init__(self, program: TriggerProgram) -> None:
        self.program = program
        self._analyses: dict[TriggerKey, TriggerAnalysis] = {}
        for relation in program.stream_relations:
            for sign in (1, -1):
                self._analyses[(relation, sign)] = TriggerAnalysis(program, relation, sign)

    def analysis(self, relation: str, sign: int) -> TriggerAnalysis:
        return self._analyses[(relation, sign)]

    def fold(self, events: Iterable[StreamEvent]) -> list[DeltaGroup]:
        """Partition an event slice into ordered, internally folded delta groups.

        Events join the most recent group with their key when every group in
        between commutes with their trigger; otherwise a fresh group starts.
        """
        groups: list[DeltaGroup] = []
        analyses = self._analyses
        for event in events:
            key = (event.relation, event.sign)
            analysis = analyses[key]
            target: DeltaGroup | None = None
            for group in reversed(groups[-_MERGE_LOOKBACK:]):
                if group.key == key:
                    target = group
                    break
                if not analysis.commutes_with(analyses[group.key]):
                    break
            if target is None:
                target = DeltaGroup(event.relation, event.sign, analysis.safe)
                groups.append(target)
            target.add(event)
        return groups


class StagedBatch:
    """A pre-folded, pre-columnarized event slice (see ``BatchedEngine.stage``)."""

    __slots__ = ("groups", "events")

    def __init__(self, groups: list, events: int) -> None:
        self.groups = groups
        self.events = events


class BatchedEngine:
    """Delta-batched execution of a compiled trigger program.

    Buffers incoming events and applies them in batches of ``batch_size``
    through :class:`BatchPlan`.  Views are always read through :meth:`flush`,
    so observable results are identical to per-event execution (bulk-unsafe
    triggers replay their events in order inside the batch).
    """

    def __init__(
        self,
        program: TriggerProgram,
        batch_size: int = DEFAULT_BATCH_SIZE,
        plan: BatchPlan | None = None,
        telemetry=None,
    ) -> None:
        if batch_size < 1:
            raise ExecutionError(f"batch_size must be >= 1, got {batch_size}")
        # Why vector dispatch is off (numpy missing or REPRO_NO_NUMPY), else
        # None: the statement runners are the semantics of record anyway.
        self.vector_reason: str | None = vector_unavailable_reason()
        self.program = program
        self.batch_size = batch_size
        if telemetry is None:
            from repro.telemetry import current

            telemetry = current()
        # The inner engine shares this telemetry: fallback groups replay
        # through its per-event apply (it observes them), bulk groups bypass
        # it and are accounted through count_bulk_events — summed at scrape,
        # events in == events accounted, nothing counted twice.
        self.telemetry = telemetry
        self.engine = CompiledEngine(program, telemetry=telemetry)
        self.plan = plan if plan is not None and plan.program is program else BatchPlan(program)
        self._buffer: list[StreamEvent] = []
        self._stream_relations = frozenset(program.stream_relations)
        # Accounting for reports / tests.
        self.batches_flushed = 0
        self.groups_applied = 0
        self.bulk_events = 0
        self.fallback_events = 0
        self.vector_events = 0
        self.vector_fallbacks: dict[str, int] = {}
        # Bound vector kernels per trigger, dropped whenever the inner
        # engine's tables are replaced wholesale (state restores).
        self._vector_bound: dict[TriggerKey, dict[int, Any]] = {}
        if telemetry.enabled:
            registry = telemetry.registry
            self._fold_hist = registry.histogram(
                "repro_exec_batch_fold_seconds",
                help="Time folding one buffer into delta groups",
            )
            self._apply_hist = registry.histogram(
                "repro_exec_batch_apply_seconds",
                help="Time applying one folded batch through the inner engine",
            )
            registry.add_collector(self._collect_telemetry)
        else:
            self._fold_hist = None
            self._apply_hist = None

    def _collect_telemetry(self, registry) -> None:
        registry.counter(
            "repro_exec_batches_flushed_total", help="Delta batches flushed"
        ).value = self.batches_flushed
        registry.counter(
            "repro_exec_groups_applied_total", help="Delta groups applied"
        ).value = self.groups_applied
        registry.counter(
            "repro_exec_bulk_events_total", help="Events applied through bulk folds"
        ).value = self.bulk_events
        registry.counter(
            "repro_exec_fallback_events_total",
            help="Events replayed per-event inside batches",
        ).value = self.fallback_events
        registry.counter(
            "repro_exec_vector_events_total",
            help="Events applied through columnar vector kernels",
        ).value = self.vector_events
        registry.counter(
            "repro_exec_vector_fallbacks_total",
            help="Vector-kernel statement applications that fell back to scalar",
        ).value = sum(self.vector_fallbacks.values())
        registry.gauge(
            "repro_exec_batch_buffer_events", help="Events currently buffered"
        ).set(len(self._buffer))

    # -- stream processing ------------------------------------------------------
    @property
    def events_processed(self) -> int:
        return self.engine.events_processed + len(self._buffer)

    def load_static(self, relation: str, rows) -> int:
        return self.engine.load_static(relation, rows)

    def apply(self, event: StreamEvent) -> None:
        """Buffer one event, flushing a full batch when the buffer fills."""
        if event.relation not in self._stream_relations:
            raise ExecutionError(
                f"relation {event.relation!r} is not a stream relation of this program"
            )
        self._buffer.append(event)
        if len(self._buffer) >= self.batch_size:
            self.flush()

    def apply_many(self, events: Iterable[StreamEvent]) -> int:
        count = 0
        for event in events:
            self.apply(event)
            count += 1
        return count

    def flush(self) -> None:
        """Apply every buffered event; views are fresh afterwards."""
        if not self._buffer:
            return
        buffer, self._buffer = self._buffer, []
        self.batches_flushed += 1
        fold_hist = self._fold_hist
        if fold_hist is None:
            for group in self.plan.fold(buffer):
                self._apply_group(group)
            return
        started = perf_counter()
        groups = self.plan.fold(buffer)
        fold_hist.observe(perf_counter() - started)
        started = perf_counter()
        for group in groups:
            self._apply_group(group)
        self._apply_hist.observe(perf_counter() - started)

    def _vector_bindings(self, analysis: TriggerAnalysis) -> dict[int, Any]:
        key = (analysis.relation, analysis.sign)
        bound = self._vector_bound.get(key)
        if bound is None:
            bound = {
                sid: kernel.bind(self.engine.maps, self.engine.database)
                for sid, kernel in analysis.vector_kernels().items()
            }
            self._vector_bound[key] = bound
        return bound

    def _note_fallback(self, reason: str) -> None:
        self.vector_fallbacks[reason] = self.vector_fallbacks.get(reason, 0) + 1

    def _try_vector(self, kernel, statement: Statement, batch) -> bool:
        """Run one statement through its vector kernel; False demands the runner.

        ``compute`` touches no engine state, so a failure at any point —
        regime violation, overflow risk, or an unexpected error a masked-out
        scalar path would never hit — leaves the tables untouched and the
        statement runner produces the exact sequential result.
        """
        table = self.engine.maps.table(statement.target)
        if table._watcher is not None:
            # set_total skips no-op notifications the per-tuple path would
            # emit; keep dirty-delta tracking exact on the statement runner.
            self._note_fallback("watcher")
            return False
        try:
            writes = kernel.compute(batch, table)
        except VectorFallback as exc:
            self._note_fallback(str(exc) or "fallback")
            return False
        except Exception as exc:  # masked rows may poison full-array ops
            self._note_fallback(f"error:{type(exc).__name__}")
            return False
        kernel.commit(table, writes)
        return True

    def _apply_group(self, group: DeltaGroup, prebuilt=None) -> None:
        self.groups_applied += 1
        engine = self.engine
        if group.events is not None:
            # Bulk-unsafe: in-order replay through the fused trigger kernels.
            self.fallback_events += group.count
            for event in group.events:
                engine.apply(event)
            return

        self.bulk_events += group.count
        engine.count_bulk_events(group.sign, group.relation, group.count)
        analysis = self.plan.analysis(group.relation, group.sign)
        runner_for = engine.codegen.runner_for
        folded = group.folded
        # Materialized lazily: a fully-vectorized group never needs the
        # per-tuple list, and building it costs ~50ns/event at large batches.
        items: list | None = None

        # Bulk folds bypass per-event apply, so provenance attributes every
        # transition of this group to the fold descriptor (the documented
        # batching attribution rule), stamped with the post-group version.
        prov = engine.provenance
        if prov is not None:
            prov.version = engine.events_processed + group.count
            prov.cause = (
                "fold",
                group.relation,
                "insert" if group.sign > 0 else "delete",
                group.count,
                len(folded),
            )

        # Per statement, in trigger order: the bound vector kernel when the
        # group reaches the cutoff, else (or on any vector fallback) the
        # compiled executor's statement runner over the folded pairs.
        # Provenance groups skip vector dispatch wholesale — set_total does
        # not record transitions.
        vec: dict[int, Any] = {}
        if prov is None:
            vec = self._vector_bindings(analysis)
        batch = prebuilt
        if vec and batch is None:
            if len(folded) < DEFAULT_MIN_VECTOR_ROWS:
                # Tiny folded groups (interleaved multi-relation streams fold
                # into runs of a handful of tuples) pay more in per-call
                # numpy overhead than vectorization saves.
                self._note_fallback("small-group")
                vec = {}
            else:
                items = list(folded.items())
                batch = ColumnBatch(items)
        vectorized = False

        for statement in analysis.increments:
            kernel = vec.get(id(statement))
            if kernel is not None and self._try_vector(kernel, statement, batch):
                vectorized = True
                continue
            if items is None:
                items = list(folded.items())
            run = runner_for(statement)
            for values, multiplicity in items:
                run(values, multiplicity)
        if vectorized:
            self.vector_events += group.count

        if analysis.updates_base:
            if items is None:
                items = list(folded.items())
            table = engine.database.table(group.relation)
            for values, multiplicity in items:
                table.add(values, group.sign * multiplicity)

        # Bulk-safe ``:=`` statements do not depend on the trigger variables:
        # once per group, under any one of its tuples.
        for statement in analysis.assigns:
            runner_for(statement)(next(iter(folded)), 1)

        engine.events_processed += group.count

    # -- staged ingest -----------------------------------------------------------
    def stage(self, events: Iterable[StreamEvent]) -> "StagedBatch":
        """Fold and pre-columnarize ``events`` ahead of :meth:`apply_staged`.

        Folding and row→column conversion are per-event costs that do not
        depend on engine state; staging performs them up front so the apply
        call measures (and spends) only the actual view-maintenance work.
        Results are identical to ``apply_many(events)`` + ``flush()``.
        """
        events = list(events)
        for event in events:
            if event.relation not in self._stream_relations:
                raise ExecutionError(
                    f"relation {event.relation!r} is not a stream relation of this program"
                )
        groups = self.plan.fold(events)
        staged: list[tuple[DeltaGroup, Any]] = []
        for group in groups:
            batch = None
            if group.folded is not None and len(group.folded) >= DEFAULT_MIN_VECTOR_ROWS:
                analysis = self.plan.analysis(group.relation, group.sign)
                kernels = analysis.vector_kernels()
                if kernels:
                    batch = ColumnBatch(list(group.folded.items()))
                    for kernel in kernels.values():
                        batch.prewarm(kernel.uses)
            staged.append((group, batch))
        return StagedBatch(staged, len(events))

    def apply_staged(self, staged: "StagedBatch") -> int:
        """Apply a staged batch; buffered events flush first to keep order."""
        self.flush()
        if not staged.groups:
            return 0
        self.batches_flushed += 1
        for group, batch in staged.groups:
            self._apply_group(group, prebuilt=batch)
        return staged.events

    # -- row provenance ----------------------------------------------------------
    @property
    def provenance(self):
        return self.engine.provenance

    def enable_provenance(self, depth: int | None = None, views=None):
        """Enable row provenance on the inner engine (fold attribution applies)."""
        return self.engine.enable_provenance(depth=depth, views=views)

    def explain_row(self, view: str | None = None, key=None) -> dict[str, Any]:
        self.flush()
        return self.engine.explain_row(view, key)

    # -- reading views ----------------------------------------------------------
    def view(self, name: str | None = None) -> GMR:
        self.flush()
        return self.engine.view(name)

    def scalar_result(self, name: str | None = None) -> Any:
        self.flush()
        return self.engine.scalar_result(name)

    def result_dict(self, name: str | None = None) -> dict[tuple, Any]:
        self.flush()
        return self.engine.result_dict(name)

    # -- accounting --------------------------------------------------------------
    def memory_bytes(self) -> int:
        self.flush()
        return self.engine.memory_bytes()

    def map_sizes(self) -> dict[str, int]:
        self.flush()
        return self.engine.map_sizes()

    def statistics(self) -> dict[str, object]:
        """Inner-engine statistics plus batching counters."""
        self.flush()
        stats = self.engine.statistics()
        vector_statements = sum(
            len(analysis.vector_kernels())
            for analysis in self.plan._analyses.values()
        )
        stats["batching"] = {
            "batch_size": self.batch_size,
            "batches_flushed": self.batches_flushed,
            "groups_applied": self.groups_applied,
            "bulk_events": self.bulk_events,
            "fallback_events": self.fallback_events,
            "vector_reason": self.vector_reason,
            "vector_statements": vector_statements,
            "vector_events": self.vector_events,
            "vector_fallbacks": dict(self.vector_fallbacks),
        }
        return stats

    def describe(self) -> str:
        return self.engine.describe()

    # -- durable state / lifecycle ------------------------------------------------
    def checkpoint_state(self) -> dict[str, Any]:
        """Flush, then capture the inner engine's state (``kind: "single"``).

        Batched and per-event engines produce interchangeable states: the
        buffer is drained first, so the state reflects every accepted event.
        """
        self.flush()
        return self.engine.checkpoint_state()

    def restore_state(self, state) -> None:
        """Load a single-engine state, discarding any buffered events."""
        self._buffer = []
        self._vector_bound = {}
        self.engine.restore_state(state)

    # -- incremental state (delta checkpoints) ----------------------------------
    def supports_delta_state(self) -> bool:
        return self.engine.supports_delta_state()

    def begin_delta_tracking(self) -> None:
        """Flush, then track dirty keys on the inner engine's tables."""
        self.flush()
        self.engine.begin_delta_tracking()

    def delta_state(self) -> dict[str, Any]:
        """Flush, then cut the inner engine's delta (covers every accepted event)."""
        self.flush()
        return self.engine.delta_state()

    def apply_delta_state(self, state) -> None:
        """Apply a delta cut, discarding any buffered events."""
        self._buffer = []
        self._vector_bound = {}
        self.engine.apply_delta_state(state)

    def close(self) -> None:
        """Flush pending work; the batched engine owns no external resources."""
        self.flush()
