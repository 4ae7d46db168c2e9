"""The view service: continuous ingestion with snapshot-consistent reads.

:class:`ViewService` owns one engine — any implementation of
:class:`~repro.runtime.protocol.EngineProtocol`: per-event, delta-batched or
hash-partitioned — and turns it into a long-running serving component:

* **versioned ingestion** — events are applied in atomic batches under the
  service lock; the service version is the total event offset, so version
  ``v`` means "exactly the first ``v`` stream events are reflected";
* **snapshot reads** — :meth:`ViewService.query` returns a
  :class:`Snapshot` tagged with the version it reflects; because reads and
  ingest batches serialize on the same lock (and buffered engines are flushed
  before reading), a reader never observes a half-applied batch;
* **delta subscriptions** — registered consumers receive ordered,
  exactly-once ``(key, old, new)`` notifications per view, computed by
  diffing the view around each ingest batch (exact for every engine mode,
  including bulk-unsafe triggers);
* **checkpoint/restore** — the engine state and the event offset persist to a
  :class:`~repro.service.checkpoint.CheckpointStore`; a restarted service
  restores the newest checkpoint and :meth:`ViewService.replay` skips the
  already-applied stream prefix, converging to bit-identical views.

The TCP server in :mod:`repro.service.server` is a thin wire adapter over
this class; everything here also works fully in-process.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace as dataclass_replace
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.compiler.program import MapDeclaration, TriggerProgram
from repro.delta.events import StreamEvent
from repro.durability.faults import maybe_crash
from repro.durability.wal import WriteAheadLog
from repro.errors import AuditError, ServiceError
from repro.exec import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_PARTITIONS,
    BatchedEngine,
    PartitionedEngine,
)
from repro.runtime.engine import IncrementalEngine
from repro.runtime.protocol import EngineProtocol
from repro.service.checkpoint import CheckpointInfo, CheckpointStore
from repro.service.subscriptions import (
    DEFAULT_QUEUE_SIZE,
    Subscription,
    SubscriptionRegistry,
)
from repro.streams.adapters import events_from_csv, events_from_jsonl, events_from_rows
from repro.streams.stats import StreamStats

#: Engine modes the service (and its CLI) can host.
ENGINE_MODES = ("incremental", "compiled", "batched", "partitioned")

#: Events per ingest batch when replaying a source through the service.
DEFAULT_INGEST_BATCH = 256

#: Client batch ids remembered in memory for idempotent-retry answers
#: (the WAL-backed index extends this window across restarts).
DEDUP_CACHE_SIZE = 8192


def engine_for_mode(
    program: TriggerProgram,
    mode: str = "compiled",
    batch_size: int | None = None,
    partitions: int | None = None,
    backend: str = "sequential",
    telemetry=None,
) -> EngineProtocol:
    """Build an engine for one of the service's execution modes.

    The default is the compiled engine; ``"incremental"`` (the AST
    interpreter) stays selectable as the correctness oracle.
    """
    if mode == "incremental":
        return IncrementalEngine(program, telemetry=telemetry)
    if mode == "compiled":
        from repro.codegen.engine import CompiledEngine

        return CompiledEngine(program, telemetry=telemetry)
    if mode == "batched":
        # ``backend`` places the partitioned engine's partitions; the batched
        # engine picks vector dispatch on its own, so any value is accepted.
        return BatchedEngine(
            program,
            DEFAULT_BATCH_SIZE if batch_size is None else batch_size,
            telemetry=telemetry,
        )
    if mode == "partitioned":
        return PartitionedEngine(
            program,
            partitions=DEFAULT_PARTITIONS if partitions is None else partitions,
            backend=backend,
            batch_size=batch_size,
            telemetry=telemetry,
        )
    raise ServiceError(f"unknown engine mode {mode!r}; expected one of {ENGINE_MODES}")


def open_source(source: Any) -> Iterator[StreamEvent]:
    """Events from any supported stream source.

    Accepts a ``.csv`` / ``.jsonl`` path, any iterable of events (list,
    :class:`~repro.streams.agenda.Agenda`, generator) or a zero-argument
    callable returning one.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        suffix = path.suffix.lower()
        if suffix == ".csv":
            return events_from_csv(path)
        if suffix in (".jsonl", ".ndjson"):
            return events_from_jsonl(path)
        raise ServiceError(
            f"cannot infer stream format of {path}; expected a .csv or .jsonl file"
        )
    if callable(source):
        source = source()
    return iter(source)


@dataclass(frozen=True)
class Snapshot:
    """One consistent read of one view, tagged with the version it reflects."""

    version: int
    view: str
    map_name: str
    columns: tuple[str, ...]
    entries: dict[tuple, Any]

    def rows(self, value_column: str = "value") -> list[dict[str, Any]]:
        """Entries as dictionaries (key columns plus the aggregate value)."""
        return [
            {**dict(zip(self.columns, key)), value_column: value}
            for key, value in self.entries.items()
        ]


@dataclass(frozen=True)
class IngestResult:
    """Outcome of one atomic ingest batch.

    ``notifications`` counts the delta notifications actually enqueued to
    subscriber queues (closed or overflowed subscriptions receive nothing).
    ``deduplicated`` marks a retried batch id answered from the dedup index
    instead of being applied a second time.
    """

    count: int
    version: int
    notifications: int = 0
    deduplicated: bool = False


def diff_results(before: Mapping[tuple, Any], after: Mapping[tuple, Any]):
    """Ordered ``(key, old, new)`` changes between two view snapshots.

    Changed and added keys come first (in the after-snapshot's order), then
    deleted keys (in the before-snapshot's order); absent sides are ``None``.
    """
    changes: list[tuple[tuple, Any, Any]] = []
    for key, new in after.items():
        old = before.get(key)
        if old != new:
            changes.append((key, old, new))
    for key, old in before.items():
        if key not in after:
            changes.append((key, old, None))
    return changes


class ViewService:
    """Serves continuously fresh materialized views from one engine."""

    def __init__(
        self,
        engine: EngineProtocol,
        checkpoint_dir: str | Path | None = None,
        telemetry=None,
        wal_dir: str | Path | None = None,
        fsync_every: int | None = 1,
        fsync_interval_ms: float | None = None,
    ) -> None:
        if not isinstance(engine, EngineProtocol):
            raise ServiceError(
                f"{type(engine).__name__} does not implement the engine protocol"
            )
        self.engine = engine
        self.program: TriggerProgram = engine.program
        self.subscriptions = SubscriptionRegistry()
        self.stream_stats = StreamStats()
        self.checkpoints = (
            CheckpointStore(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self._stream_relations = frozenset(self.program.stream_relations)
        self._publish_hooks: list[Callable[[], None]] = []
        self._lock = threading.RLock()
        self._version = 0
        self._closed = False
        self._failed = False
        self._recovering = False
        self._auditor = None
        self._statics_loaded = 0
        # Checkpoint cuts taken by this service and the version of the last
        # base written or restored (None before either).
        self._cuts = 0
        self._last_cut_version: int | None = None
        # Idempotent-ingest answers for recently seen client batch ids.
        self._dedup: OrderedDict[str, IngestResult] = OrderedDict()
        self._recovery_seconds: float | None = None
        self._wal_replayed_last = 0
        if telemetry is None:
            # Share the engine's telemetry so trigger latency and service
            # staleness land in one registry (one scrape shows both).
            telemetry = engine.telemetry
        self.telemetry = telemetry
        self.wal = (
            WriteAheadLog(
                wal_dir,
                fsync_every=fsync_every,
                fsync_interval_ms=fsync_interval_ms,
                telemetry=telemetry,
            )
            if wal_dir is not None
            else None
        )
        self._tracer = telemetry.tracer
        if telemetry.enabled:
            registry = telemetry.registry
            self._staleness_hist = registry.histogram(
                "repro_service_staleness_seconds",
                help="Ingest-to-visible latency per atomic batch (apply + diff + publish)",
            )
            from repro.telemetry import COUNT_BOUNDS

            self._ingest_batch_hist = registry.histogram(
                "repro_service_ingest_batch_events",
                help="Events per ingest batch",
                bounds=COUNT_BOUNDS,
            )
            registry.add_collector(self._collect_telemetry)
        else:
            self._staleness_hist = None
            self._ingest_batch_hist = None

    def _collect_telemetry(self, registry) -> None:
        registry.gauge("repro_service_version", help="Applied event offset").set(
            self._version
        )
        registry.gauge(
            "repro_service_recovering", help="1 while recovery blocks reads"
        ).set(1 if self._recovering else 0)
        if self._recovery_seconds is not None:
            registry.gauge(
                "repro_service_recovery_seconds",
                help="Wall time of the last restore (base + WAL tail)",
            ).set(self._recovery_seconds)
        registry.counter(
            "repro_service_subscription_overflows_total",
            help="Subscriptions closed by queue overflow",
        ).value = self.subscriptions.overflows
        for view, subscribers in self.subscriptions.stats().items():
            labels = {"view": view}
            registry.gauge(
                "repro_service_subscription_depth",
                labels,
                help="Pending notifications across a view's subscribers",
            ).set(sum(s["pending"] for s in subscribers))
            registry.gauge(
                "repro_service_subscription_high_watermark",
                labels,
                help="Deepest queue ever seen for a view",
            ).set(max((s["high_watermark"] for s in subscribers), default=0))
            registry.gauge(
                "repro_service_subscription_max_delivery_age_seconds",
                labels,
                help="Oldest last-drain age across a view's subscribers",
            ).set(
                max(
                    (s["last_delivery_age_seconds"] or 0.0 for s in subscribers),
                    default=0.0,
                )
            )

    # -- identity --------------------------------------------------------------
    @property
    def version(self) -> int:
        """The event offset: how many stream events the views reflect."""
        with self._lock:
            return self._version

    def views(self) -> tuple[str, ...]:
        """The root query names this service can serve."""
        return tuple(sorted(self.program.roots))

    def _declaration(self, name: str | None) -> MapDeclaration:
        decl = self.program.view_map(name)
        if decl is None:
            raise ServiceError(
                f"unknown view {name!r}; available: {sorted(self.program.roots)}"
            )
        return decl

    def _canonical_view(self, name: str | None) -> str:
        if name is None:
            roots = sorted(self.program.roots)
            if len(roots) != 1:
                raise ServiceError(f"service has {len(roots)} views; specify one of {roots}")
            return roots[0]
        self._declaration(name)  # validates
        return name

    # -- data loading ----------------------------------------------------------
    def load_static(
        self, relation: str, rows: Iterable[Sequence[Any] | Mapping[str, Any]]
    ) -> int:
        """Load a static relation before (or between) ingest batches."""
        with self._lock:
            if self._auditor is not None:
                rows = list(rows)
                loaded = self.engine.load_static(relation, rows)
                self._auditor.observe_static(relation, rows)
                return loaded
            self._statics_loaded += 1
            return self.engine.load_static(relation, rows)

    # -- correctness observability ----------------------------------------------
    def enable_audit(
        self,
        views: Sequence[str] | None = None,
        check_every: int | None = None,
        sample_rows: int | None = None,
        seed: int = 0,
        fail_fast: bool = False,
    ):
        """Attach an online :class:`~repro.inspect.auditor.ViewAuditor`.

        Must run before any data reaches the engine — the auditor mirrors
        base relations as they stream in, so statics loaded or events
        ingested earlier would be missing from its reference.  (Restoring a
        checkpoint afterwards is fine: :meth:`restore` reloads the mirror
        from the checkpoint's audit state, or deactivates the auditor when
        the checkpoint predates auditing.)  Returns the auditor.
        """
        from repro.inspect.auditor import (
            DEFAULT_CHECK_EVERY,
            DEFAULT_SAMPLE_ROWS,
            ViewAuditor,
        )

        with self._lock:
            self._require_open()
            if self._version > 0 or self._statics_loaded > 0:
                raise ServiceError(
                    "enable_audit must run before statics are loaded or events "
                    "ingested; the auditor cannot reconstruct data it never saw"
                )
            registry = self.telemetry.registry if self.telemetry.enabled else None
            self._auditor = ViewAuditor(
                self.program,
                views=views,
                check_every=DEFAULT_CHECK_EVERY if check_every is None else check_every,
                sample_rows=DEFAULT_SAMPLE_ROWS if sample_rows is None else sample_rows,
                seed=seed,
                fail_fast=fail_fast,
                registry=registry,
            )
            return self._auditor

    @property
    def auditor(self):
        return self._auditor

    def audit_now(self):
        """Force an audit pass immediately (regardless of cadence)."""
        with self._lock:
            self._require_open()
            if self._auditor is None:
                raise ServiceError("auditing is not enabled on this service")
            self.engine.flush()
            try:
                return self._auditor.check(self.engine, self._version)
            except AuditError:
                self._failed = True
                raise

    def enable_provenance(
        self, depth: int | None = None, views: Sequence[str] | None = None
    ) -> None:
        """Enable row-provenance rings on the owned engine."""
        with self._lock:
            self._require_open()
            self.engine.enable_provenance(depth=depth, views=list(views) if views else None)

    def explain_row(
        self, view: str | None = None, key: Sequence[Any] | None = None
    ) -> dict[str, Any]:
        """Recent mutation history of one view row, stamped with the version."""
        with self._lock:
            self._require_open()
            self.engine.flush()
            report = self.engine.explain_row(view, key)
            report["version"] = self._version
            return report

    # -- ingestion -------------------------------------------------------------
    def _validate_batch(self, events: Sequence[StreamEvent]) -> None:
        """Reject the whole batch before any event mutates engine state."""
        schemas = self.program.schemas
        for index, event in enumerate(events):
            if not isinstance(event, StreamEvent):
                raise ServiceError(
                    f"events[{index}] is {type(event).__name__}, not a StreamEvent"
                )
            if event.relation not in self._stream_relations:
                raise ServiceError(
                    f"events[{index}]: relation {event.relation!r} is not a stream "
                    f"relation of this program "
                    f"(streams: {sorted(self._stream_relations)})"
                )
            arity = len(schemas[event.relation])
            if len(event.values) != arity:
                raise ServiceError(
                    f"events[{index}]: {event.relation} expects {arity} values, "
                    f"got {len(event.values)}"
                )

    def _remember_batch(self, batch_id: str, result: IngestResult) -> None:
        """Cache the idempotent-retry answer for a client batch id."""
        self._dedup[batch_id] = result
        self._dedup.move_to_end(batch_id)
        while len(self._dedup) > DEDUP_CACHE_SIZE:
            self._dedup.popitem(last=False)

    def _deduplicate(self, batch_id: str) -> IngestResult | None:
        """The original result of an already-applied batch id, if known.

        The in-memory cache answers retries against a live server; the
        WAL-backed index extends the window across restarts to everything in
        the log's retained segments.
        """
        cached = self._dedup.get(batch_id)
        if cached is not None:
            self._dedup.move_to_end(batch_id)
            return cached
        if self.wal is not None:
            seen = self.wal.seen_batch(batch_id)
            if seen is not None:
                count, version = seen
                result = IngestResult(
                    count=count, version=version, notifications=0, deduplicated=True
                )
                self._remember_batch(batch_id, result)
                return result
        return None

    def ingest(
        self,
        events: Iterable[StreamEvent],
        batch_id: str | None = None,
        encoded: bytes | None = None,
    ) -> IngestResult:
        """Apply one batch of events atomically and publish the deltas.

        Readers either see the state before the whole batch or after it —
        never in between — and the version advances by the batch size.  The
        batch is validated up front so a malformed event rejects it as a whole
        without touching engine state; should the log append or the engine
        itself still fail mid-batch, the service marks itself failed and
        refuses further operations rather than serving state that no longer
        matches any version.  :meth:`restore` from a checkpoint recovers an
        engine failure; a failed append closes the log, and a restart
        recovers from what the log holds.

        With a write-ahead log attached, the batch is logged *before* it
        touches engine state (the write-ahead invariant: the log is always at
        or ahead of memory), so recovery replays exactly the accepted
        batches.  A client-supplied ``batch_id`` makes the call idempotent:
        a retried id is answered with the original result — deduplicated
        against the in-memory cache and the WAL — instead of double-applied.
        ``encoded`` is the wire request line ``events`` were decoded from (the
        TCP server has it); the log then stores those bytes as they are
        instead of encoding the batch a second time.
        """
        events = list(events)
        tracer = self._tracer
        started = perf_counter()
        with tracer.span("service.ingest", {"events": len(events)}):
            with self._lock:
                self._require_open()
                if batch_id is not None:
                    previous = self._deduplicate(batch_id)
                    if previous is not None:
                        return dataclass_replace(previous, deduplicated=True)
                with tracer.span("service.validate"):
                    self._validate_batch(events)
                if self.wal is not None:
                    try:
                        self.wal.append(self._version, events, batch_id, encoded=encoded)
                    except BaseException:
                        # The log may now hold bytes the engine never saw.
                        self._failed = True
                        raise
                subscribed = self.subscriptions.subscribed_views()
                before = {view: self.engine.result_dict(view) for view in subscribed}
                try:
                    with tracer.span("service.apply"):
                        count = self.engine.apply_many(events)
                        self.engine.flush()
                except BaseException:
                    self._failed = True
                    raise
                self._version += count
                for event in events:
                    self.stream_stats.record(event)
                auditor = self._auditor
                if auditor is not None and auditor.active:
                    auditor.record(events)
                    try:
                        auditor.maybe_check(self.engine, self._version)
                    except AuditError:
                        # The incremental state provably diverged from the
                        # reference: stop serving it (restore() recovers).
                        self._failed = True
                        raise
                notifications = 0
                with tracer.span("service.publish"):
                    for view in subscribed:
                        changes = diff_results(
                            before[view], self.engine.result_dict(view)
                        )
                        if changes:
                            notifications += self.subscriptions.publish(
                                view, self._version, changes
                            )
                result = IngestResult(
                    count=count, version=self._version, notifications=notifications
                )
                if batch_id is not None:
                    self._remember_batch(batch_id, result)
                staleness_hist = self._staleness_hist
                if staleness_hist is not None and events:
                    # Ingest-to-visible staleness: by here the views reflect the
                    # batch and every subscriber queue holds its deltas.
                    staleness_hist.observe(perf_counter() - started)
                    self._ingest_batch_hist.observe(len(events))
        if notifications:
            for hook in list(self._publish_hooks):
                hook()
        return result

    def ingest_rows(
        self,
        relation: str,
        rows: Iterable[Sequence[Any] | Mapping[str, Any]],
        columns: Sequence[str] | None = None,
        sign: int = 1,
    ) -> IngestResult:
        """Ingest plain rows as insert (or delete) events for one relation."""
        return self.ingest(events_from_rows(relation, rows, columns=columns, sign=sign))

    def replay(
        self,
        source: Any,
        batch_size: int = DEFAULT_INGEST_BATCH,
        checkpoint_every: int | None = None,
    ) -> int:
        """Run the ingestion loop over a stream source until it is exhausted.

        The first ``version`` events of the source are skipped — they are
        already reflected (the restart path: restore a checkpoint, then replay
        the same stream).  ``checkpoint_every`` takes a checkpoint after that
        many newly applied events.  Returns the number of events applied.
        """
        if batch_size < 1:
            raise ServiceError(f"batch_size must be >= 1, got {batch_size}")
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ServiceError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            if self.checkpoints is None:
                raise ServiceError("service was built without a checkpoint directory")
        skip = self.version
        applied = 0
        since_checkpoint = 0
        batch: list[StreamEvent] = []

        def flush_batch() -> None:
            nonlocal applied, since_checkpoint
            if not batch:
                return
            applied += self.ingest(batch).count
            since_checkpoint += len(batch)
            batch.clear()
            if checkpoint_every is not None and since_checkpoint >= checkpoint_every:
                self.checkpoint()
                since_checkpoint = 0

        for event in open_source(source):
            if skip > 0:
                skip -= 1
                continue
            batch.append(event)
            if len(batch) >= batch_size:
                flush_batch()
        flush_batch()
        return applied

    # -- snapshot reads ---------------------------------------------------------
    def query(self, name: str | None = None) -> Snapshot:
        """A version-tagged, snapshot-consistent read of one view."""
        started = perf_counter()
        with self._tracer.span("service.query", {"view": name}):
            with self._lock:
                self._require_open()
                view = self._canonical_view(name)  # friendly multi-root error first
                decl = self._declaration(view)
                self.engine.flush()
                snapshot = Snapshot(
                    version=self._version,
                    view=view,
                    map_name=decl.name,
                    columns=decl.keys,
                    entries=self.engine.result_dict(view),
                )
        if self.telemetry.enabled:
            self.telemetry.registry.histogram(
                "repro_service_query_latency_seconds",
                {"view": snapshot.view},
                help="Snapshot query latency per view",
            ).observe(perf_counter() - started)
        return snapshot

    # -- subscriptions ----------------------------------------------------------
    def subscribe(
        self,
        name: str | None = None,
        maxlen: int = DEFAULT_QUEUE_SIZE,
        policy: str = "close",
    ) -> Subscription:
        """Register a consumer for one view's future deltas.

        ``policy`` picks the queue-overflow behaviour: ``close`` (default)
        closes the subscription with an overflow mark, ``coalesce`` collapses
        backpressured changes into net per-key deltas and stays subscribed.
        """
        with self._lock:
            self._require_open()
            return self.subscriptions.subscribe(
                self._canonical_view(name), maxlen, policy
            )

    def unsubscribe(self, subscription: Subscription) -> None:
        """Drop a subscription (pending notifications are discarded)."""
        self.subscriptions.unsubscribe(subscription)

    def add_publish_hook(self, hook: Callable[[], None]) -> None:
        """Register a callback fired after an ingest batch published deltas.

        Hooks run on the ingesting thread, outside the service lock, and must
        be cheap and thread-safe.  The TCP server uses one to schedule
        subscriber pumps when an in-process :meth:`ingest`/:meth:`replay`
        publishes notifications that no wire request would otherwise flush.
        """
        with self._lock:
            if hook not in self._publish_hooks:
                self._publish_hooks.append(hook)

    def remove_publish_hook(self, hook: Callable[[], None]) -> None:
        """Unregister a previously added publication hook."""
        with self._lock:
            if hook in self._publish_hooks:
                self._publish_hooks.remove(hook)

    # -- checkpoint / restore ----------------------------------------------------
    def checkpoint(self) -> CheckpointInfo:
        """Cut one full checkpoint at the current version; returns its metadata.

        Every cut also garbage-collects: bases beyond the newest
        :data:`~repro.service.checkpoint.KEEP_BASES` are pruned, and the WAL
        (when attached) is synced, rotated at the cut and pruned to the
        oldest kept base.
        """
        with self._lock:
            self._require_open()
            if self.checkpoints is None:
                raise ServiceError("service was built without a checkpoint directory")
            self.engine.flush()
            version = self._version
            if self.wal is not None:
                # A checkpoint must never claim an offset the log has not
                # durably reached: sync, then seal the segment at the cut.
                self.wal.sync()
                self.wal.rotate()
            auditor = self._auditor
            audit_state = (
                auditor.state() if auditor is not None and auditor.active else None
            )
            info = self.checkpoints.save(
                version,
                self.engine.checkpoint_state(),
                self.stream_stats.as_dict(),
                audit_state=audit_state,
            )
            floor = self.checkpoints.prune()
            if self.wal is not None and floor is not None:
                self.wal.prune(floor)
            self._cuts += 1
            self._last_cut_version = version
            return info

    def restore(self) -> int | None:
        """Rebuild state from disk, if any; returns the caught-up version.

        Two stages, the second covering what the first misses: the newest
        intact base and — when a write-ahead log is attached — an idempotent
        replay of the WAL tail past it.  Also the recovery path after a
        mid-batch engine failure: restoring replaces the (possibly inconsistent) engine
        state wholesale and clears the failed mark.  Live subscriptions are
        closed — the version may have jumped backwards, so delivering further
        deltas would break the exactly-once contract; consumers resubscribe
        with a fresh snapshot, exactly as after an overflow.
        """
        with self._lock:
            if self._closed:
                raise ServiceError("service is closed")
            if self.checkpoints is None:
                raise ServiceError("service was built without a checkpoint directory")
            started = perf_counter()
            version: int | None = None
            if self.checkpoints.latest() is not None:
                base = self.checkpoints.load()
                self.engine.restore_state(base["engine_state"])
                self._version = int(base["version"])
                stats = base.get("stream_stats") or {}
                self.stream_stats = StreamStats(
                    total=stats.get("total", 0),
                    inserts=stats.get("inserts", 0),
                    deletes=stats.get("deletes", 0),
                    per_relation=dict(stats.get("per_relation", {})),
                )
                if self._auditor is not None:
                    self._auditor.restore(base.get("audit_state"))
                self._last_cut_version = self._version
                version = self._version
            maybe_crash("recovery.restored")
            if self.wal is not None and version is not None:
                self._replay_wal_tail()
                version = self._version
                maybe_crash("recovery.replayed")
            self._recovery_seconds = perf_counter() - started
            self.subscriptions.close_all()
            self._failed = False
        # Let the server pump the close marks to wire subscribers promptly.
        for hook in list(self._publish_hooks):
            hook()
        return version

    def _replay_wal_tail(self) -> int:
        """Apply every logged batch past the current version; returns the count.

        Replay is idempotent by offset: records at or below the restored cut
        are skipped inside the log, and each applied record fast-forwards the
        version to its end offset, so replaying after a crash *during* replay
        converges to the same state.
        """
        wal = self.wal
        auditor = self._auditor
        replayed = 0
        for record in wal.replay(self._version):
            events = record.events  # the one decode of this record's payload
            if auditor is not None and auditor.active:
                auditor.record(events)
            self.engine.apply_many(events)
            for event in events:
                self.stream_stats.record(event)
            self._version = record.end
            replayed += 1
        self.engine.flush()
        if wal.end_offset < self._version:
            # The checkpoint is newer than the retained log (e.g. a fresh WAL
            # directory next to old checkpoints): everything below the
            # version is on disk already, so the log restarts here.
            wal.align_to(self._version)
        self._wal_replayed_last = replayed
        return replayed

    def recover(self, load_statics: Callable[[], None] | None = None) -> dict[str, Any]:
        """Run the full recovery sequence, refusing reads until caught up.

        Orchestrates restart: restore the newest intact base + WAL tail when
        checkpoints exist; otherwise call ``load_statics`` (the cold-start
        path — static tables are not in the log) and replay the whole WAL
        from offset zero.  While recovery runs, queries and ingest
        raise and ``statistics()`` reports ``recovering: true``; once the
        service is bit-identical with the pre-crash tip it atomically resumes
        serving.  Returns a report of what each stage contributed.
        """
        with self._lock:
            self._require_open()
            self._recovering = True
        try:
            started = perf_counter()
            version = (
                self.restore()
                if self.checkpoints is not None and self.checkpoints.latest() is not None
                else None
            )
            if version is None:
                # Cold start: nothing on disk but (possibly) the log.
                if load_statics is not None:
                    load_statics()
                with self._lock:
                    maybe_crash("recovery.restored")
                    if self.wal is not None:
                        self._replay_wal_tail()
                        maybe_crash("recovery.replayed")
                    self._recovery_seconds = perf_counter() - started
            report = {
                "version": self._version,
                "restored": version is not None,
                "wal_batches_replayed": self._wal_replayed_last,
                "recovery_seconds": perf_counter() - started,
                "wal": self.wal.stats() if self.wal is not None else None,
            }
        finally:
            with self._lock:
                self._recovering = False
        return report

    # -- accounting / lifecycle --------------------------------------------------
    def statistics(self) -> dict[str, object]:
        """Service-level counters plus the owned engine's statistics.

        Unlike reads, this works *during* recovery — reporting
        ``recovering: true`` and the current replay position instead of the
        engine internals — so operators can watch a restart catch up.
        """
        with self._lock:
            if self._recovering:
                stats: dict[str, object] = {
                    "version": self._version,
                    "views": list(self.views()),
                    "recovering": True,
                }
                if self.wal is not None:
                    stats["durability"] = {"wal": self.wal.stats()}
                return stats
            self._require_open()
            self.engine.flush()
            stats = {
                "version": self._version,
                "views": list(self.views()),
                "recovering": False,
                "stream": self.stream_stats.as_dict(),
                "subscriptions": self.subscriptions.stats(),
                "engine": self.engine.statistics(),
            }
            if self.wal is not None or self._cuts:
                durability: dict[str, object] = {
                    "cuts": self._cuts,
                    "last_cut_version": self._last_cut_version,
                    "wal_batches_replayed": self._wal_replayed_last,
                }
                if self._recovery_seconds is not None:
                    durability["recovery_seconds"] = self._recovery_seconds
                if self.wal is not None:
                    durability["wal"] = self.wal.stats()
                stats["durability"] = durability
            if self._auditor is not None:
                stats["audit"] = self._auditor.summary()
            return stats

    def _require_open(self) -> None:
        if self._closed:
            raise ServiceError("service is closed")
        if self._recovering:
            raise ServiceError(
                "service is recovering; reads and ingest resume once it has "
                "caught up with the write-ahead log"
            )
        if self._failed:
            raise ServiceError(
                "service failed mid-ingest and its state may be inconsistent; "
                "restore() from a checkpoint, or restart, to recover"
            )

    def close(self) -> None:
        """Release engine resources (syncing the WAL); further operations raise."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self.wal is not None:
                self.wal.close()
            self.engine.close()

    def __enter__(self) -> "ViewService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
