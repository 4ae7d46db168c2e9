"""The incremental view-maintenance engine.

:class:`IncrementalEngine` wraps a compiled trigger program with the runtime
state it needs (map store, base-relation store for static/required tables)
and exposes the operations an embedding application uses: feed events, read
views, inspect memory.  The same engine executes every compilation strategy
(full HO-IVM, classical IVM, re-evaluation, naive viewlet) — only the trigger
program differs — which is what makes the paper's shared-infrastructure
comparison meaningful.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.compiler.program import TriggerProgram
from repro.core.gmr import GMR
from repro.delta.events import StreamEvent
from repro.errors import RuntimeEngineError
from repro.runtime.database import Database
from repro.runtime.interpreter import TriggerExecutor
from repro.runtime.maps import MapStore
from repro.runtime.protocol import STATE_FORMAT, STATE_SINGLE, STATS_SCHEMA


def check_stream_events(program: TriggerProgram, events: Iterable[StreamEvent]) -> None:
    """Reject a slice holding any event that is not a stream event of ``program``:
    its relation is not a stream, or it carries the wrong number of values.

    Every engine's ``apply_many`` runs this before it applies, buffers or
    routes anything, so a rejected slice leaves the engine as it was.
    """
    arities = program.stream_arities
    for event in events:
        if arities.get(event.relation) != len(event.values):
            if event.relation not in arities:
                raise RuntimeEngineError(
                    f"relation {event.relation!r} is not a stream relation of this program"
                )
            raise RuntimeEngineError(
                f"event arity {len(event.values)} does not match relation arity "
                f"{arities[event.relation]} of {event.relation!r}"
            )


class IncrementalEngine:
    """Keeps the materialized views of one trigger program continuously fresh."""

    def __init__(self, program: TriggerProgram, telemetry=None) -> None:
        self.program = program
        self.maps = MapStore()
        for decl in program.maps.values():
            self.maps.declare(decl.name, decl.keys)

        self.database = Database()
        for relation in program.static_relations:
            self.database.declare(relation, program.schemas[relation])
        self._maintained = program.requires_base_relations()
        for relation in self._maintained:
            self.database.declare(relation, program.schemas[relation])

        self._executor = TriggerExecutor(
            program, self.database, self.maps, maintained_relations=self._maintained
        )
        self.events_processed = 0
        # Opt-in row provenance (repro.inspect): None keeps the hot path at a
        # single comparison per event.
        self._provenance = None

        if telemetry is None:
            from repro.telemetry import current

            telemetry = current()
        self.telemetry = telemetry
        # (sign, relation) -> observe(dt) when enabled, else None: the apply
        # hot path pays one None check in disabled mode.
        self._trigger_observers: dict[tuple[int, str], Callable[[float], None]] | None = None
        # Per-trigger latency histograms (enabled only), read at scrape.
        self._trigger_hists: dict[tuple[int, str], Any] = {}
        # Burst profiling (profile_interval > 0): the profiler thread re-arms
        # _trigger_observers, and after _profile_left timed events the
        # sampled path disarms it again — zero added cost between bursts.
        self._armed_observers: dict[tuple[int, str], Callable[[float], None]] | None = None
        self._profile_burst = 0
        self._profile_left = 0
        # Events accounted in bulk (a batched engine's bulk runs bypass
        # per-event apply); plain int bumps, merged into events_total at scrape.
        self._bulk_events: dict[tuple[int, str], int] = {}
        if telemetry.enabled:
            self._init_telemetry()

    # -- telemetry --------------------------------------------------------------
    def _init_telemetry(self) -> None:
        """Build per-trigger instrument handles and install the collector."""
        telemetry = self.telemetry
        registry = telemetry.registry
        tracer = telemetry.tracer
        observers: dict[tuple[int, str], Callable[[float], None]] = {}
        for trigger in self.program.triggers.values():
            key = (trigger.sign, trigger.relation)
            op = "insert" if trigger.sign > 0 else "delete"
            hist = registry.histogram(
                "repro_engine_trigger_latency_seconds",
                {"relation": trigger.relation, "op": op},
                help="Per-event trigger execution latency",
            )
            self._trigger_hists[key] = hist
            if tracer.enabled:
                observers[key] = self._traced_observer(
                    hist.observe, f"engine.apply/{op}/{trigger.relation}", tracer
                )
            else:
                observers[key] = hist.observe
        self._armed_observers = observers
        self._trigger_observers = observers
        if telemetry.profile_interval > 0:
            self._profile_burst = telemetry.profile_burst
            self._profile_left = self._profile_burst
            telemetry.attach_engine(self)
        registry.add_collector(self._collect_telemetry)

    def _telemetry_arm(self) -> None:
        """Start one profiling burst (called from the profiler thread)."""
        self._profile_left = self._profile_burst
        self._trigger_observers = self._armed_observers

    @staticmethod
    def _traced_observer(observe, name: str, tracer):
        def observe_and_trace(dt: float) -> None:
            observe(dt)
            tracer.event(name, dt)

        return observe_and_trace

    def _collect_telemetry(self, registry) -> None:
        """Scrape-time collector: pull always-on counters into the registry."""
        hists, bulk = self._trigger_hists, self._bulk_events
        keys = set(hists) | set(bulk)
        # Continuous mode observes every event, so totals are exact.  In
        # burst-profiling mode the sampled fraction is only known empirically
        # (events that went through per-event apply over total samples — bulk
        # events are counted exactly and were never sampled): histogram
        # counts are scaled back up and per-key totals are estimates.
        scale = 1.0
        if self._profile_burst:
            total_sampled = sum(hist.count for hist in hists.values())
            per_event = self.events_processed - sum(bulk.values())
            scale = per_event / total_sampled if total_sampled else 0.0
        for sign, relation in keys:
            op = "insert" if sign > 0 else "delete"
            hist = hists.get((sign, relation))
            counter = registry.counter(
                "repro_engine_events_total",
                {"relation": relation, "op": op},
                help="Stream events applied, by relation and operation",
            )
            sampled = hist.count if hist is not None else 0
            counter.value = round(sampled * scale) + bulk.get((sign, relation), 0)
        # Read the stores directly: a scrape must not flush a batched engine.
        registry.gauge(
            "repro_engine_memory_bytes", help="Resident bytes of maps plus base relations"
        ).set(self.maps.memory_bytes() + self.database.memory_bytes())
        registry.counter(
            "repro_engine_events_processed_total", help="Total events processed"
        ).value = self.events_processed
        for name in self.maps.names():
            table = self.maps.table(name)
            registry.counter(
                "repro_map_probes_total", {"map": name}, help="Point probes per map"
            ).value = table.probes
            registry.counter(
                "repro_map_scans_total", {"map": name}, help="Scans per map"
            ).value = table.scans
            registry.counter(
                "repro_map_range_probes_total", {"map": name}, help="Range-sum probes per map"
            ).value = table.range_probes
            for column, ordered_stats in table.ordered_index_stats().items():
                labels = {"map": name, "column": column}
                registry.counter(
                    "repro_ordered_probes_total", labels, help="Ordered-index probes"
                ).value = ordered_stats["probes"]
                registry.counter(
                    "repro_ordered_scan_fallbacks_total",
                    labels,
                    help="Ordered-index probes answered by scanning",
                ).value = ordered_stats["scan_fallbacks"]
                registry.counter(
                    "repro_ordered_rebuilds_total", labels, help="Ordered-index rebuilds"
                ).value = ordered_stats["rebuilds"]

    # -- data loading -----------------------------------------------------------
    def load_static(self, relation: str, rows: Iterable[Sequence[Any] | Mapping[str, Any]]) -> int:
        """Load a static relation before stream processing begins."""
        if relation not in self.program.static_relations:
            raise RuntimeEngineError(
                f"{relation!r} is not declared static in this program"
            )
        return self.database.load(relation, rows)

    # -- stream processing ----------------------------------------------------------
    def apply(self, event: StreamEvent) -> None:
        """Apply a single insert/delete event, refreshing every view."""
        if event.relation not in self.program.stream_relations:
            raise RuntimeEngineError(
                f"relation {event.relation!r} is not a stream relation of this program"
            )
        prov = self._provenance
        if prov is not None:
            prov.version = self.events_processed + 1
            prov.cause = (
                "event",
                event.relation,
                "insert" if event.sign > 0 else "delete",
                event.values,
            )
        observers = self._trigger_observers
        if observers is None:
            self._executor.apply(event)
        else:
            observe = observers.get((event.sign, event.relation))
            if observe is None:
                self._executor.apply(event)
            else:
                started = perf_counter()
                self._executor.apply(event)
                observe(perf_counter() - started)
            if self._profile_burst:
                self._profile_left -= 1
                if self._profile_left <= 0:
                    # Burst over: disarm until the profiler thread re-arms.
                    self._trigger_observers = None
        self.events_processed += 1

    def apply_many(self, events: Iterable[StreamEvent]) -> int:
        """Apply a sequence of events, none if any names a non-stream
        relation (:func:`check_stream_events`); returns how many."""
        events = list(events)
        check_stream_events(self.program, events)
        for event in events:
            self.apply(event)
        return len(events)

    def flush(self) -> None:
        """No-op: per-event execution never buffers (uniform engine contract)."""

    # -- reading views ----------------------------------------------------------------
    def _view_declaration(self, name: str | None):
        """The map declaration behind a view name (root query or map name)."""
        decl = self.program.view_map(name)
        if decl is None:
            raise RuntimeEngineError(f"unknown view {name!r}")
        return decl

    def view(self, name: str | None = None) -> GMR:
        """Contents of a view as a GMR (key row -> aggregate value)."""
        return self.maps.table(self._view_declaration(name).name).to_gmr()

    def scalar_result(self, name: str | None = None) -> Any:
        """The value of a scalar (non-grouping) view."""
        return self.view(name).total_multiplicity()

    def result_dict(self, name: str | None = None) -> dict[tuple, Any]:
        """A fresh dict of the view's contents, keyed by key tuple (key order)."""
        # The lookup inline, not through _view_declaration: this is the read
        # the service's snapshot queries time.
        decl = self.program.view_map(name)
        if decl is None:
            raise RuntimeEngineError(f"unknown view {name!r}")
        return self.maps.table(decl.name).primary.copy()

    # -- row provenance ----------------------------------------------------------
    @property
    def provenance(self):
        """The active :class:`ProvenanceRecorder`, or None when disabled."""
        return self._provenance

    def enable_provenance(
        self, depth: int | None = None, views: Sequence[str] | None = None
    ):
        """Start recording per-view mutation history into bounded rings.

        ``views`` accepts root query names or map names and defaults to the
        program's root maps.  Calling again reconfigures (old rings are
        dropped).  Returns the recorder.
        """
        from repro.inspect.provenance import DEFAULT_DEPTH, ProvenanceRecorder

        if self._provenance is not None:
            self._detach_provenance()
        names = list(views) if views else sorted(self.program.roots)
        tracked: dict[str, tuple[str, ...]] = {}
        for name in names:
            decl = self._view_declaration(name)
            tracked[decl.name] = self.maps.table(decl.name).columns
        recorder = ProvenanceRecorder(
            tracked, depth=DEFAULT_DEPTH if depth is None else depth
        )
        recorder.version = self.events_processed
        self._provenance = recorder
        self._attach_provenance()
        return recorder

    def _attach_provenance(self) -> None:
        for name in self._provenance.views():
            self.maps.table(name).set_watcher(self._provenance.watcher_for(name))

    def _detach_provenance(self) -> None:
        for name in self._provenance.views():
            self.maps.table(name).set_watcher(None)

    def explain_row(
        self, view: str | None = None, key: Sequence[Any] | None = None
    ) -> dict[str, Any]:
        """Recent mutation history of one view (optionally one key).

        Returns the tracked ring entries with their causing events, newest
        last, plus the key's current value when a key is given.  Requires
        :meth:`enable_provenance`.
        """
        self.flush()
        if self._provenance is None:
            raise RuntimeEngineError(
                "provenance is not enabled on this engine "
                "(call enable_provenance / serve with --provenance-depth)"
            )
        from repro.inspect.provenance import entry_to_dict

        decl = self._view_declaration(view)
        table = self.maps.table(decl.name)
        entries = self._provenance.history(decl.name, key)
        report: dict[str, Any] = {
            "view": view if view is not None else decl.name,
            "map": decl.name,
            "columns": list(table.columns),
            "key": list(key) if key is not None else None,
            "depth": self._provenance.depth,
            "history": [entry_to_dict(entry) for entry in entries],
        }
        if key is not None:
            report["current"] = table.get(tuple(key), 0)
        return report

    # -- accounting ----------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Approximate resident size of all views plus stored base relations."""
        return self.maps.memory_bytes() + self.database.memory_bytes()

    def map_sizes(self) -> dict[str, int]:
        """Entry counts per materialized view."""
        return self.maps.sizes()

    def statistics(self) -> dict[str, object]:
        """The ``repro.stats/1`` document: per-map and per-relation
        entry/memory/index statistics."""
        return {
            "schema": STATS_SCHEMA,
            "mode": "incremental",
            "events_processed": self.events_processed,
            "memory_bytes": self.memory_bytes(),
            "maps": self.maps.stats(),
            "relations": self.database.stats(),
        }

    def describe(self) -> str:
        """Human-readable listing of the compiled program this engine runs."""
        return self.program.pretty()

    # -- durable state / lifecycle ---------------------------------------------
    def checkpoint_state(self) -> dict[str, Any]:
        """Everything needed to rebuild this engine's observable state.

        The returned dictionary (``kind: "single"``) holds every map's entries,
        every stored base relation's tuples and the event count; values keep
        their exact runtime types so a restored engine is bit-identical.
        """
        maps = {name: list(self.maps.table(name).items()) for name in self.maps.names()}
        relations = {
            name: list(self.database.table(name).items())
            for name in self.database.relations()
        }
        state: dict[str, Any] = {
            "format": STATE_FORMAT,
            "kind": STATE_SINGLE,
            "program": self.program.digest,
            "events_processed": self.events_processed,
            "maps": maps,
            "relations": relations,
        }
        if self._provenance is not None:
            state["provenance"] = self._provenance.state()
        return state

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Load a :meth:`checkpoint_state` dictionary into this engine.

        Intended for freshly built engines running the *same* trigger program:
        a state naming a different program digest is refused, as are unknown
        map or relation names.  A state without a digest (written before
        checkpoints carried one) is held to the name check alone.
        """
        if state.get("kind") != STATE_SINGLE:
            raise RuntimeEngineError(
                f"cannot restore a {state.get('kind')!r} state into a single engine"
            )
        if state.get("format") != STATE_FORMAT:
            raise RuntimeEngineError(
                f"engine state has format {state.get('format')!r}; "
                f"this build reads format {STATE_FORMAT}"
            )
        written_by = state.get("program")
        if written_by is not None and written_by != self.program.digest:
            raise RuntimeEngineError(
                f"state was written by program {written_by}, this engine runs "
                f"program {self.program.digest}: the compiled maps differ, so "
                "the state cannot be loaded (replay the stream instead)"
            )
        declared = set(self.maps.names())
        unknown = set(state["maps"]) - declared
        if unknown:
            raise RuntimeEngineError(
                f"state holds maps {sorted(unknown)} not declared by this program"
            )
        unknown = set(state["relations"]) - set(self.database.relations())
        if unknown:
            raise RuntimeEngineError(
                f"state holds relations {sorted(unknown)} not declared by this program"
            )
        # Repopulation below must not masquerade as view mutations: detach
        # the provenance watchers for the duration and reload ring contents
        # from the state afterwards.
        recorder = self._provenance
        if recorder is not None:
            self._detach_provenance()
        for name in self.maps.names():
            table = self.maps.table(name)
            table.clear()
            for values, value in state["maps"].get(name, ()):
                table.set(values, value)
        for name in self.database.relations():
            table = self.database.table(name)
            table.clear()
            for values, value in state["relations"].get(name, ()):
                table.set(values, value)
        self.events_processed = int(state["events_processed"])
        saved = state.get("provenance")
        if recorder is None and saved:
            # The state was produced with provenance enabled: carry the
            # configuration and history across the restore transparently.
            recorder = self.enable_provenance(
                depth=saved.get("depth"), views=list(saved.get("views", ()))
            )
            recorder.restore(saved)
        elif recorder is not None:
            self._attach_provenance()
            recorder.version = self.events_processed
            recorder.cause = ("restore", self.events_processed)
            if saved:
                recorder.restore(saved)
            else:
                for ring in recorder.rings.values():
                    ring.clear()

    def close(self) -> None:
        """No-op: the per-event engine owns no external resources."""
