"""Batched delta execution: apply triggers once per delta batch, not per event.

A per-event engine runs every trigger statement once per stream event, and
much of that cost is fixed overhead — trigger lookup, dispatch, key-row
construction — that is identical across events.  This module partitions a
slice of the agenda into *runs* — ordered lists of events sharing one
(relation, sign) trigger, Section 3.4's bulk updates made concrete — and
dispatches each run once.

Exactness is never traded for speed.  A static analysis decides, per trigger,
whether bulk application is equivalent to sequential application:

* a trigger is **bulk-safe** when none of its ``+=`` statements read a map the
  same trigger writes, none read the triggering base relation itself, and its
  ``:=`` statements do not depend on the trigger variables.  The per-tuple
  deltas are then independent of the order the run's events are applied in,
  so applying every ``+=`` statement to the whole run, then the ``:=``
  statements once, is exactly the sequential result.
* all other triggers (self-joins, nested-aggregate view maintenance, ...),
  and every trigger the fuser leaves on the interpreter, replay their events
  in order.

Runs also merge non-adjacent events of the same (relation, sign) when the
intervening triggers *commute* (neither reads what the other writes, and they
share no ``:=`` target; both may ``+=`` one map, which reorders a float sum:
DESIGN.md "Live findings"), which
turns the short per-relation runs of realistic streams into large ones.  A
run is never slower than its events one by one: it takes the bulk path only
where that wins (a vector kernel over enough rows, ``:=`` statements that
then run once per run) and is otherwise handed whole to the fused kernel.

A bulk run either sends its ``+=`` statements through the trigger's one
vector kernel, which builds every sink's write list before it commits any,
or sends its events one by one through fused code; a fallback never leaves a
run half-committed.  Whether a trigger vectorizes is that kernel's compile
attempt (:attr:`TriggerAnalysis.vector_kernel`), nothing else.  A bulk-safe
trigger with ``:=`` statements gets two fused kernels besides its per-event
one: the ``+=`` steps with the base apply, and the ``:=`` steps.

The plan and every kernel belong to the program (:func:`batch_plan`,
:attr:`BatchPlan.bulk_kernels`): the first engine over a program object
builds them, later ones only link them against their own tables.
"""

from __future__ import annotations

from functools import cached_property
from time import perf_counter
from typing import Any, Iterable, NamedTuple, Sequence

from repro.codegen.engine import CompiledEngine
from repro.codegen.trigger import TriggerKernel, program_kernels, try_fuse_trigger
from repro.codegen.vector import (
    ColumnBatch,
    VectorFallback,
    VectorKernel,
    program_vector_kernel,
    vector_unavailable_reason,
)
from repro.compiler.program import ASSIGN, INCREMENT, Statement, TriggerProgram
from repro.core.gmr import GMR
from repro.delta.events import StreamEvent
from repro.errors import ExecutionError
from repro.runtime.engine import check_stream_events

#: Default number of events coalesced into one delta batch.
DEFAULT_BATCH_SIZE = 100

#: Shortest run dispatched to the vector backend.  A vector kernel call costs a
#: fixed numpy dispatch for each of its sinks however short the run, so
#: shorter runs — the common shape when interleaved multi-relation streams
#: partition into many of them — replay through the fused trigger kernel.
#: The value is the measured crossover on Q1's Lineitem trigger, the one the
#: vector backend helps most (table in DESIGN.md "Small-run cutoff").
DEFAULT_MIN_VECTOR_ROWS = 160

TriggerKey = tuple[str, int]


class TriggerAnalysis:
    """Static bulk-safety and statement classification for one trigger."""

    def __init__(self, program: TriggerProgram, relation: str, sign: int) -> None:
        self.relation = relation
        self.sign = sign
        self.name = f"{relation}:{'+' if sign > 0 else '-'}"
        trigger = program.trigger_for(sign, relation)
        statements: Sequence[Statement] = trigger.statements if trigger else ()
        self.increments = [s for s in statements if s.operation == INCREMENT]
        self.assigns = [s for s in statements if s.operation == ASSIGN]

        self.writes = frozenset(s.target for s in statements)
        self.assign_targets = frozenset(s.target for s in self.assigns)
        self.reads_maps = frozenset().union(*(s.reads_maps() for s in statements))
        self.reads_relations = frozenset().union(*(s.reads_relations() for s in statements))
        self.updates_base = relation in program.requires_base_relations()

        self.safe = trigger is None or trigger.bulk_safe()
        # Bulk at any run length: := statements then run once per run (or none run).
        self.always_bulk = self.safe and bool(self.assigns or not self.increments)
        self._program = program
        self._trigger = trigger

    @property
    def vector_kernel(self) -> VectorKernel | None:
        """The trigger's one columnar kernel, or None (compiled on first use).

        This compile attempt is the whole "does this trigger vectorize"
        decision (numpy present, bulk safety, distinct targets, every ``+=``
        step lowered); the program keeps it (:func:`program_vector_kernel`),
        and ``describe``, ``explain`` and ``codegen dump`` read the same
        outcome.
        """
        if self._trigger is None:
            return None
        kernel = program_vector_kernel(self._trigger, self._program)
        return None if isinstance(kernel, str) else kernel

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

    def bulk(self, count: int) -> bool:
        """Whether a run of ``count`` events takes the bulk path.

        Static trigger facts and the run length decide, so a run is never
        below its events one by one: bulk wins when ``:=`` statements then
        run once per run, or the vector kernel amortises over enough rows; every
        other run goes whole to the fused trigger kernel.
        """
        return self.always_bulk or self.vectorizes(count)

    def vectorizes(self, count: int) -> bool:
        """Whether a run of ``count`` events reaches the vector kernel."""
        return count >= DEFAULT_MIN_VECTOR_ROWS and self.vector_kernel is not None

    def policy(self) -> str:
        """The static half of :meth:`bulk`, as ``explain`` prints it."""
        if self.always_bulk:
            return "bulk (:= once per group)"
        kernel = self.vector_kernel  # None for a bulk-unsafe trigger
        if kernel is None:
            return "replay (fused)"
        return (
            f"vector ×{len(kernel.sinks)} statements from {DEFAULT_MIN_VECTOR_ROWS} events, "
            "below that replay (fused)"
        )


class DeltaGroup(NamedTuple):
    """A maximal reorderable run: one trigger's events in arrival order."""

    analysis: TriggerAnalysis
    events: list[StreamEvent]


def batch_plan(program: TriggerProgram) -> "BatchPlan":
    """The program's batch plan, built once per program object and shared by
    every batched engine over it (``explain`` reads the same one)."""
    return program.built("batch-plan", BatchPlan)


class BatchPlan:
    """Per-program analysis driving batched execution (shared across engines)."""

    def __init__(self, program: TriggerProgram) -> None:
        self._program = program
        self._analyses: dict[TriggerKey, TriggerAnalysis] = {}
        for relation in program.stream_relations:
            for sign in (1, -1):
                self._analyses[(relation, sign)] = TriggerAnalysis(program, relation, sign)
        # The commute relation, once per program: the triggers whose runs an
        # event of each key may not move across.
        self.blocks: dict[TriggerKey, tuple[TriggerKey, ...]] = {
            key: tuple(
                other for other, theirs in self._analyses.items()
                if other != key and not mine.commutes_with(theirs)
            )
            for key, mine in self._analyses.items()
        }

    def analysis(self, relation: str, sign: int) -> TriggerAnalysis:
        return self._analyses[(relation, sign)]

    @cached_property
    def bulk_kernels(self) -> dict[TriggerAnalysis, tuple[TriggerKernel | None, TriggerKernel | None]]:
        """``(increments, assigns)`` fused kernels per trigger that may run bulk.

        A bulk-safe trigger without ``:=`` statements runs its per-event
        kernel over the run.  One with them gets its ``+=`` steps (with the
        base apply) and its ``:=`` steps fused apart, so the ``:=`` steps run
        once per run.  Where a trigger has no ``+=`` statement the bulk path
        applies the base relation itself (None); a trigger left on the
        interpreter is absent, and its runs replay.  Built once per plan,
        like the per-event kernels; each engine links them.
        """
        program = self._program
        per_event = program_kernels(program)
        kernels: dict[TriggerAnalysis, tuple[TriggerKernel | None, TriggerKernel | None]] = {}
        for analysis in self._analyses.values():
            if not analysis.safe:
                continue
            trigger = program.trigger_for(analysis.sign, analysis.relation)
            fused = per_event.get((analysis.sign, analysis.relation))
            if fused is None and (analysis.increments or analysis.assigns):
                continue
            if not analysis.assigns:
                kernels[analysis] = (fused, None)
                continue
            increments = None
            if analysis.increments:
                increments = try_fuse_trigger(trigger, program, assigns=False)
                if increments is None:
                    continue
            assigns = try_fuse_trigger(trigger, program, increments=False)
            if assigns is not None:
                kernels[analysis] = (increments, assigns)
        return kernels

    def fold(self, events: Iterable[StreamEvent]) -> list[DeltaGroup]:
        """Partition an event slice into ordered runs, one pass.

        An event joins its key's *open* run, or opens one.  Opening a run
        closes the runs of every key it does not commute with, so a run stays
        open exactly while every run created since commutes with it: arrival
        order is kept inside each run and between any two non-commuting events.
        """
        # Parallel lists, zipped into groups at the end: cheaper per run than
        # building each pair in the loop (Q3 opens one run per two events).
        owners: list[TriggerAnalysis] = []
        runs: list[list[StreamEvent]] = []
        open_runs: dict[TriggerKey, list[StreamEvent]] = {}
        analyses, blocks = self._analyses, self.blocks
        relation = sign = run = None
        for event in events:
            if event.sign == sign and event.relation == relation:
                run.append(event)
                continue
            relation, sign = event.relation, event.sign
            key = (relation, sign)
            run = open_runs.get(key)
            if run is None:
                run = open_runs[key] = []
                owners.append(analyses[key])
                runs.append(run)
                for blocked in blocks[key]:
                    if blocked in open_runs:
                        del open_runs[blocked]
            run.append(event)
        return list(map(DeltaGroup._make, zip(owners, runs)))

    def describe(self) -> list[dict[str, Any]]:
        """Per trigger with statements: the static run policy and its blockers."""
        return [
            {
                "trigger": analysis.name,
                "policy": analysis.policy(),
                "blocked_by": [self._analyses[other].name for other in self.blocks[key]],
            }
            for key, analysis in self._analyses.items()
            if analysis.increments or analysis.assigns
        ]


def render_policies(entries: Iterable[dict[str, Any]]) -> list[str]:
    """One line per :meth:`BatchPlan.describe` entry (``explain`` prints these)."""
    return [
        f"  {entry['trigger']} {entry['policy']}; "
        f"merges blocked by: {', '.join(entry['blocked_by']) or '-'}"
        for entry in entries
    ]


class StagedBatch(NamedTuple):
    """A pre-partitioned, pre-columnarized event slice (see ``BatchedEngine.stage``)."""

    groups: list[DeltaGroup]
    batches: list[ColumnBatch | None]  # by group index
    events: int


class BatchedEngine(CompiledEngine):
    """A compiled engine whose dispatch policy is runs, not events.

    It *is* a :class:`CompiledEngine` — same maps, database, executor,
    provenance, checkpoint and delta state, program digest and telemetry —
    except that ``apply`` buffers: every ``batch_size`` events the buffer is
    partitioned into runs (:meth:`BatchPlan.fold`) and each run is dispatched
    once, to the bulk path or whole to the fused kernel.  The plan and the
    extra fused kernels bulk runs call are the program's; the engine links
    them.  Reads flush first,
    so observable results are identical to per-event execution.
    ``events_processed`` counts accepted events, buffered ones included.
    """

    def __init__(
        self,
        program: TriggerProgram,
        batch_size: int = DEFAULT_BATCH_SIZE,
        telemetry=None,
    ) -> None:
        if batch_size < 1:
            raise ExecutionError(f"batch_size must be >= 1, got {batch_size}")
        # Before the base constructor: it assigns events_processed, whose
        # setter reads the buffer.
        self._buffer: list[StreamEvent] = []
        super().__init__(program, telemetry=telemetry)
        # Why vector dispatch is off (numpy missing or REPRO_NO_NUMPY), else None.
        self.vector_reason: str | None = vector_unavailable_reason()
        self.batch_size = batch_size
        self.plan = batch_plan(program)
        self.batches_flushed = self.runs_bulk = self.runs_replayed = 0
        self.fallback_events = self.vector_events = 0
        self.vector_fallbacks: dict[str, int] = {}
        self._bind_bulk_kernels()
        self._fold_hist = self._apply_hist = None
        if self.telemetry.enabled:
            registry = self.telemetry.registry
            self._fold_hist = registry.histogram(
                "repro_exec_batch_fold_seconds",
                help="Time partitioning one buffer into runs",
            )
            self._apply_hist = registry.histogram(
                "repro_exec_batch_apply_seconds",
                help="Time applying one partitioned batch",
            )

    def _collect_telemetry(self, registry) -> None:
        super()._collect_telemetry(registry)  # counts every event once, bulk ones too
        for name, help_text, value in (
            ("batches_flushed", "Delta batches flushed", self.batches_flushed),
            ("groups_applied", "Delta groups applied", self.runs_bulk + self.runs_replayed),
            ("bulk_events", "Events applied through bulk runs", sum(self._bulk_events.values())),
            ("fallback_events", "Events replayed per-event inside batches", self.fallback_events),
            ("vector_events", "Events applied through columnar vector kernels", self.vector_events),
            ("vector_fallbacks", "Vectorizing runs that fell back to fused code",
             sum(self.vector_fallbacks.values())),
        ):
            registry.counter(f"repro_exec_{name}_total", help=help_text).value = value
        registry.gauge(
            "repro_exec_batch_buffer_events", help="Events currently buffered"
        ).set(len(self._buffer))

    # -- stream processing ------------------------------------------------------
    @property
    def events_processed(self) -> int:
        return self._applied + len(self._buffer)

    @events_processed.setter
    def events_processed(self, value: int) -> None:
        # Inherited code assigns or bumps (+= n) the count with the buffer as
        # it stands: buffered events stay out of the applied count.
        self._applied = value - len(self._buffer)

    def apply(self, event: StreamEvent) -> None:
        """Buffer one event, flushing a full batch when the buffer fills."""
        check_stream_events(self.program, (event,))
        self._buffer.append(event)
        if len(self._buffer) >= self.batch_size:
            self.flush()

    def apply_many(self, events: Iterable[StreamEvent]) -> int:
        """Buffer a slice, applying every batch it fills, where :meth:`apply` would.

        All-or-nothing: relations and arities are validated before anything
        is buffered, so a rejected slice leaves the engine exactly as it was.
        """
        events = list(events)
        check_stream_events(self.program, events)
        pending = self._buffer
        pending.extend(events)
        size = self.batch_size
        full = len(pending) - len(pending) % size
        if full:
            self._buffer = []
            for start in range(0, full, size):
                self._apply_batch(pending[start:start + size])
            self._buffer = pending[full:]
        return len(events)

    def flush(self) -> None:
        """Apply every buffered event; views are fresh afterwards."""
        if self._buffer:
            buffer, self._buffer = self._buffer, []
            self._apply_batch(buffer)

    def _apply_batch(self, buffer: list[StreamEvent]) -> None:
        self.batches_flushed += 1
        started = perf_counter()
        groups = self.plan.fold(buffer)
        folded = perf_counter()
        self._apply_groups(groups)
        if self._fold_hist is not None:
            self._fold_hist.observe(folded - started)
            self._apply_hist.observe(perf_counter() - folded)

    def _bind_bulk_kernels(self) -> None:
        maps, database = self.maps, self.database
        self._bulk = {
            analysis: tuple(k and k.bind(maps, database) for k in pair)
            for analysis, pair in self.plan.bulk_kernels.items()
        }

    def _vectorize(self, analysis: TriggerAnalysis, events, batch) -> bool:
        """Every ``+=`` statement of a run through the trigger's vector kernel, or none.

        ``compute`` builds every sink's write list before ``commit`` writes
        any.  Any failure — regime violation, overflow risk, an error a
        masked-out scalar path would never hit, a watcher on a target table —
        leaves the tables untouched and returns False: the run goes to fused
        code.
        """
        if batch is None:
            batch = ColumnBatch([event.values for event in events])
        kernel = analysis.vector_kernel.bind(self.maps, self.database)
        try:
            writes = kernel.compute(batch)
        except VectorFallback as exc:
            reason = str(exc) or "fallback"
        except Exception as exc:  # masked rows may poison full-array ops
            reason = f"error:{type(exc).__name__}"
        else:
            kernel.commit(writes)
            return True
        self.vector_fallbacks[reason] = self.vector_fallbacks.get(reason, 0) + 1
        return False

    def _apply_groups(self, groups: list[DeltaGroup], batches: Sequence = ()) -> None:
        """Dispatch each run once, in order (``batches``: staged columns by index)."""
        replay, floor, bulk = self._replay_run, DEFAULT_MIN_VECTOR_ROWS, self._bulk
        for index, (analysis, events) in enumerate(groups):
            # (The length test short-cuts bulk() for the many short runs.)
            if (
                analysis.always_bulk or len(events) >= floor and analysis.bulk(len(events))
            ) and analysis in bulk:
                self._apply_bulk(analysis, events, batches[index] if batches else None)
            else:
                self.runs_replayed += 1
                self.fallback_events += len(events)
                replay(analysis, events)

    def _replay_run(self, analysis: TriggerAnalysis, events: list[StreamEvent]) -> None:
        """The whole run to the fused trigger kernel, in arrival order.

        Per-event execution minus the per-event lookup and arity check (the
        slice was validated on the way in).  While provenance or a telemetry
        observer is armed, or the trigger has no fused kernel, each event goes
        through the inherited per-event ``apply`` (this engine's own buffers),
        so attribution and sampling are those of per-event execution.
        """
        fused = self._executor._fused.get((analysis.sign, analysis.relation))
        if fused is None or self._provenance is not None or self._trigger_observers is not None:
            apply = super().apply
            for event in events:
                apply(event)
            return
        runner = fused[0]
        done = 0
        try:
            for done, event in enumerate(events):
                runner(event.values)
        except BaseException:
            self._applied += done
            raise
        self._applied += len(events)

    def _apply_bulk(
        self, analysis: TriggerAnalysis, events: list[StreamEvent], batch: ColumnBatch | None
    ) -> None:
        """One bulk-safe run: the ``+=`` steps over every event, the ``:=`` steps once."""
        count = len(events)
        relation, sign = analysis.relation, analysis.sign
        self.runs_bulk += 1
        # Bulk runs bypass per-event apply: the telemetry collector adds these
        # counts to the sampled ones (events in == events accounted).
        key = (sign, relation)
        self._bulk_events[key] = self._bulk_events.get(key, 0) + count

        # Provenance attributes bulk transitions to the fold descriptor,
        # stamped with the post-run version.  Provenance runs skip vector
        # dispatch wholesale — set_total does not record transitions.
        prov = self._provenance
        if prov is not None:
            prov.version = self._applied + count
            prov.cause = ("fold", relation, "insert" if sign > 0 else "delete", count, count)

        increments, assigns = self._bulk[analysis]
        vectorized = (
            prov is None and analysis.vectorizes(count)
            and self._vectorize(analysis, events, batch)
        )
        if vectorized:
            self.vector_events += count
        if increments is not None and not vectorized:
            for event in events:
                increments(event.values)
        elif analysis.updates_base:
            add = self.database.table(relation).add
            for event in events:
                add(event.values, sign)
        # Bulk-safe ``:=`` statements do not depend on the trigger variables:
        # once per run, under any one of its tuples.
        if assigns is not None:
            assigns(events[0].values)
        self._applied += count

    # -- staged ingest -----------------------------------------------------------
    def stage(self, events: Iterable[StreamEvent]) -> "StagedBatch":
        """Partition and pre-columnarize ``events`` ahead of :meth:`apply_staged`.

        Both are per-event costs that do not depend on engine state; staged
        up front, the apply call measures (and spends) only view maintenance.
        Results are identical to ``apply_many(events)`` + ``flush()``.
        """
        events = list(events)
        check_stream_events(self.program, events)
        groups = self.plan.fold(events)
        batches: list[ColumnBatch | None] = []
        for analysis, run in groups:
            batch = None
            if analysis.vectorizes(len(run)):
                batch = ColumnBatch([event.values for event in run])
                batch.prewarm(analysis.vector_kernel.uses)
            batches.append(batch)
        return StagedBatch(groups, batches, len(events))

    def apply_staged(self, staged: "StagedBatch") -> int:
        """Apply a staged batch; buffered events flush first to keep order."""
        self.flush()
        if not staged.groups:
            return 0
        self.batches_flushed += 1
        self._apply_groups(staged.groups, staged.batches)
        return staged.events

    # -- reads flush first (here, so the per-event engines' reads stay as they are)
    def view(self, name: str | None = None) -> GMR:
        self.flush()
        return super().view(name)

    def result_dict(self, name: str | None = None) -> dict[tuple, Any]:
        self.flush()
        # Named base call: the timed snapshot read skips building a super().
        return CompiledEngine.result_dict(self, name)

    def memory_bytes(self) -> int:
        self.flush()
        return super().memory_bytes()

    def map_sizes(self) -> dict[str, int]:
        self.flush()
        return super().map_sizes()

    def statistics(self) -> dict[str, object]:
        """The compiled engine's document as ``mode: "batched"``, plus run counters."""
        self.flush()
        stats = super().statistics()
        stats["mode"] = "batched"
        analyses = self.plan._analyses.values()
        stats["batching"] = {
            "batch_size": self.batch_size,
            "batches_flushed": self.batches_flushed,
            "groups_applied": self.runs_bulk + self.runs_replayed,
            "runs_bulk": self.runs_bulk,
            "runs_replayed": self.runs_replayed,
            "bulk_events": sum(self._bulk_events.values()),
            "fallback_events": self.fallback_events,
            "vector_reason": self.vector_reason,
            "vector_statements": sum(
                len(a.vector_kernel.sinks) for a in analyses if a.vector_kernel is not None
            ),
            "vector_events": self.vector_events,
            "vector_fallbacks": dict(self.vector_fallbacks),
        }
        return stats

    def describe(self) -> str:
        """The compiled engine's listing plus each trigger's run policy."""
        policies = render_policies(self.plan.describe())
        return "\n".join([super().describe(), "-- batching --", *policies])

    # -- durable state / lifecycle ------------------------------------------------
    def checkpoint_state(self) -> dict[str, Any]:
        """Flush, then capture (``kind: "single"``, interchangeable with
        per-event engines': every accepted event is in)."""
        self.flush()
        return super().checkpoint_state()

    def restore_state(self, state) -> None:
        """Load a single-engine state, discarding any buffered events."""
        self._buffer = []
        super().restore_state(state)
        self._bind_bulk_kernels()

    def close(self) -> None:
        """Flush pending work; the batched engine owns no external resources."""
        self.flush()
