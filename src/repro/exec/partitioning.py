"""Hash-partitioned execution: shard map state across per-partition engines.

Each of ``N`` partitions hosts a full engine for the same trigger program
over a *slice* of the stream: every **partitioned** relation routes each
tuple to exactly one partition by hashing its partition-key columns, while
**replicated** relations (and all static tables) are broadcast to every
partition.  Because every partition is an ordinary, internally consistent
engine over its slice of the database, correctness reduces to a *merge*
question answered statically per map:

* a map whose definition references at least one partitioned relation
  *linearly* (not under a ``Lift``/``Exists``) with all partitioned atoms
  joined on the partition key is **sum-merged**: every contribution is
  computed in exactly one partition, so the global view is the multiplicity
  sum of the per-partition views;
* a map whose definition references only replicated relations is computed
  identically everywhere and read from partition 0 (the broadcast path);
* anything else is unmergeable — :func:`infer_partition_spec` demotes
  relations to replicated until every root map falls into one of the two
  classes above, so reads through :class:`PartitionedEngine` are always
  exact.  Queries that are nonlinear in every stream relation (nested
  aggregates such as VWAP) degenerate to full replication: correct, with
  parallelism available only across independent queries.

Key inference prefers join variables shared by the most atoms, breaking ties
toward primary-key-like (leading) columns, which recovers the natural
co-partitioning schemes: Orders/Lineitem on ``orderkey``, the order-book
self-joins on ``broker_id``, MDDB's atom-position self-joins on the
trajectory/time keys.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterable, Mapping, Sequence

from repro.agca.ast import Exists, Expr, Lift, Relation, children
from repro.compiler.program import MapDeclaration, TriggerProgram
from repro.core.gmr import GMR
from repro.core.rows import Row
from repro.core.values import is_zero, normalize_number
from repro.delta.events import StreamEvent
from repro.errors import ExecutionError
from repro.runtime.engine import check_stream_events
from repro.runtime.protocol import STATE_FORMAT, STATE_PARTITIONED, STATS_SCHEMA

#: Default number of partitions.
DEFAULT_PARTITIONS = 4

#: Merge strategies for reading a map across partitions.
MERGE_SUM = "sum"
MERGE_REPLICATED = "replicated"
MERGE_UNMERGEABLE = "unmergeable"


def stable_hash(values: tuple) -> int:
    """A deterministic, process-independent hash of a partition-key tuple.

    Numerically equal keys must hash equally regardless of representation
    (``7`` joins ``7.0`` under Python equality, so both must route to the
    same partition); :func:`normalize_number` collapses integral floats and
    Fractions to ints before hashing.
    """
    total = 0
    for value in values:
        value = normalize_number(value)
        if isinstance(value, int):  # bools normalize to ints above
            total = (total * 1000003 + (value & 0x7FFFFFFF)) & 0x7FFFFFFF
        else:
            total = (total * 1000003 + zlib.crc32(repr(value).encode())) & 0x7FFFFFFF
    return total


@dataclass(frozen=True)
class PartitionSpec:
    """Which relations are hash-partitioned on which key columns."""

    partitions: int
    keys: Mapping[str, tuple[str, ...]]
    replicated: frozenset[str]
    merge: Mapping[str, str] = field(default_factory=dict)

    def describe(self) -> str:
        parts = [f"{self.partitions} partitions"]
        for relation in sorted(self.keys):
            parts.append(f"{relation} by ({', '.join(self.keys[relation])})")
        if self.replicated:
            parts.append(f"replicated: {', '.join(sorted(self.replicated))}")
        return "; ".join(parts)


def _linear_atoms(expr: Expr) -> tuple[list[Relation], set[str]]:
    """Relation atoms occurring linearly, plus relations under nonlinear nodes.

    An atom under a ``Lift`` or ``Exists`` contributes through a nonlinear
    function of the data (a nested aggregate value or a domain test), so the
    relations it mentions cannot be partitioned without breaking sum-merging.
    """
    linear: list[Relation] = []
    nonlinear: set[str] = set()

    def visit(node: Expr, inside_nonlinear: bool) -> None:
        if isinstance(node, Relation):
            if inside_nonlinear:
                nonlinear.add(node.name)
            else:
                linear.append(node)
            return
        nested = inside_nonlinear or isinstance(node, (Lift, Exists))
        for child in children(node):
            visit(child, nested)

    visit(expr, False)
    return linear, nonlinear


def _atom_key_vars(atom: Relation, key_columns: Sequence[str], schema: Sequence[str]):
    """Variables standing at ``key_columns`` positions inside ``atom``."""
    positions = []
    schema = tuple(schema)
    for column in key_columns:
        try:
            positions.append(schema.index(column))
        except ValueError:
            return None
    if any(p >= len(atom.columns) for p in positions):
        return None
    return tuple(atom.columns[p] for p in positions)


def _choose_join_variable(
    atoms: Sequence[Relation],
    schemas: Mapping[str, Sequence[str]],
    assignment: Mapping[str, tuple[str, ...]],
) -> tuple[str, list[Relation]] | None:
    """Pick the variable partitioning the largest consistent subset of atoms.

    Returns ``(variable, covered_atoms)`` where every covered atom carries the
    variable at one consistent column position per relation (compatible with
    any existing single-column ``assignment``), or ``None`` when no variable
    covers two or more atoms.
    """
    candidates: dict[str, dict[str, set[int]]] = {}
    for atom in atoms:
        for position, variable in enumerate(atom.columns):
            candidates.setdefault(variable, {}).setdefault(atom.name, set()).add(position)

    best: tuple[int, int, str] | None = None
    best_cover: list[Relation] = []
    for variable in sorted(candidates):
        per_relation = candidates[variable]
        cover: list[Relation] = []
        leading = 0
        for atom in atoms:
            positions = {p for p, v in enumerate(atom.columns) if v == variable}
            if not positions:
                continue
            # The variable must sit at a single consistent column per relation
            # across all of that relation's atoms in this map.
            shared = set.intersection(
                *(
                    {p for p, v in enumerate(other.columns) if v == variable}
                    for other in atoms
                    if other.name == atom.name
                )
            )
            if not shared:
                continue
            assigned = assignment.get(atom.name)
            if assigned is not None:
                schema = tuple(schemas[atom.name])
                if len(assigned) != 1 or schema.index(assigned[0]) not in shared:
                    continue
            cover.append(atom)
            if 0 in shared:
                leading += 1
        # Every atom of a covered relation must be covered, otherwise one of
        # its occurrences would range over foreign partitions.
        covered_names = {a.name for a in cover}
        if any(a.name in covered_names and a not in cover for a in atoms):
            continue
        if len(cover) >= 2:
            score = (len(cover), leading, variable)
            if best is None or score > best:
                best = score
                best_cover = cover
    if best is None:
        return None
    return best[2], best_cover


def infer_partition_spec(
    program: TriggerProgram, partitions: int = DEFAULT_PARTITIONS
) -> PartitionSpec:
    """Choose partition keys making every root map exactly mergeable.

    Starts with every stream relation a candidate, then iteratively
    (a) demotes relations used nonlinearly, (b) unifies join keys inside each
    root map, demoting atoms left outside the chosen co-partitioning, until a
    fixpoint.  Remaining free relations default to their leading column.
    """
    if partitions < 1:
        raise ExecutionError(f"partitions must be >= 1, got {partitions}")
    stream = list(program.stream_relations)
    assignment: dict[str, tuple[str, ...]] = {}
    demoted: set[str] = set()
    root_declarations = [program.maps[name] for name in program.roots.values()]

    def candidate(name: str) -> bool:
        return name in program.stream_relations and name not in demoted

    changed = True
    while changed:
        changed = False
        for decl in root_declarations:
            linear, nonlinear = _linear_atoms(decl.definition)
            for relation in sorted(nonlinear):
                if candidate(relation):
                    demoted.add(relation)
                    changed = True
            # A relation used both linearly and nonlinearly is already demoted.
            atoms = [a for a in linear if candidate(a.name)]
            if len(atoms) <= 1:
                continue

            def adopt(variable: str, cover: list[Relation]) -> None:
                nonlocal changed
                names = {a.name for a in cover}
                for name in sorted(names):
                    if name in demoted:
                        continue
                    schema = tuple(program.schemas[name])
                    shared = set.intersection(
                        *(
                            {p for p, v in enumerate(a.columns) if v == variable}
                            for a in cover
                            if a.name == name
                        )
                    )
                    existing = assignment.get(name)
                    if existing is not None:
                        if schema.index(existing[0]) not in shared:
                            demoted.add(name)
                            changed = True
                        continue
                    assignment[name] = (schema[min(shared)],)
                    changed = True

            choice = _choose_join_variable(atoms, program.schemas, assignment)
            if choice is None:
                # No co-partitioning possible: keep the relation with the most
                # atoms (ties: first in schema order) if its own occurrences
                # can agree on a key, demote everything else.
                by_name: dict[str, list[Relation]] = {}
                for atom in atoms:
                    by_name.setdefault(atom.name, []).append(atom)
                keep = max(by_name, key=lambda n: (len(by_name[n]), -stream.index(n)))
                if len(by_name[keep]) > 1:
                    solo = _choose_join_variable(by_name[keep], program.schemas, assignment)
                    if solo is None:
                        demoted.add(keep)
                        changed = True
                    else:
                        adopt(*solo)
                for name in by_name:
                    if name != keep and candidate(name):
                        demoted.add(name)
                        changed = True
                continue
            variable, cover = choice
            for atom in atoms:
                if atom not in cover and candidate(atom.name):
                    demoted.add(atom.name)
                    changed = True
            adopt(variable, [a for a in cover if candidate(a.name)])

    for relation in stream:
        if relation not in assignment and relation not in demoted:
            schema = program.schemas[relation]
            assignment[relation] = (schema[0],) if schema else ()
    final_keys = {
        relation: columns
        for relation, columns in assignment.items()
        if relation not in demoted and columns
    }
    replicated = frozenset(r for r in stream if r not in final_keys)

    merge = {
        name: _classify_map(decl, final_keys, program.schemas)
        for name, decl in program.maps.items()
    }
    for root, map_name in program.roots.items():
        if merge[map_name] == MERGE_UNMERGEABLE:  # pragma: no cover - guarded above
            raise ExecutionError(
                f"internal error: root {root!r} is not mergeable under {final_keys}"
            )
    return PartitionSpec(
        partitions=partitions,
        keys=final_keys,
        replicated=replicated,
        merge=merge,
    )


def _classify_map(
    decl: MapDeclaration,
    keys: Mapping[str, tuple[str, ...]],
    schemas: Mapping[str, Sequence[str]],
) -> str:
    linear, nonlinear = _linear_atoms(decl.definition)
    if any(name in keys for name in nonlinear):
        return MERGE_UNMERGEABLE
    partitioned = [a for a in linear if a.name in keys]
    if not partitioned:
        return MERGE_REPLICATED
    key_vars = set()
    for atom in partitioned:
        vars_ = _atom_key_vars(atom, keys[atom.name], schemas[atom.name])
        if vars_ is None:
            return MERGE_UNMERGEABLE
        key_vars.add(vars_)
    return MERGE_SUM if len(key_vars) == 1 else MERGE_UNMERGEABLE


#: Routed events buffered per dispatch: one ``apply_many`` per partition
#: every ``ROUTE_BUFFER`` events amortises the hand-off (a pipe send under the
#: process placement).
ROUTE_BUFFER = 256

#: Per-table counters summed across partitions in merged statistics.
TABLE_COUNTERS = ("entries", "memory_bytes", "probes", "scans", "range_probes")

#: Integer ``codegen``/``batching`` fields that describe the configuration or
#: the compiled program — identical in every partition, so not summed.
_PER_PROGRAM = frozenset({
    "batch_size", "compiled_statements", "fallback_statements", "fused_kernels",
    "deduped_probes", "deduped_scalars", "vector_statements",
})


def _merge_tables(per_partition: Sequence[Mapping[str, Mapping[str, Any]]]) -> dict:
    """Per-name sums of :data:`TABLE_COUNTERS` across partitions."""
    merged: dict[str, dict[str, int]] = {}
    for tables in per_partition:
        for name, stats in tables.items():
            totals = merged.setdefault(name, dict.fromkeys(TABLE_COUNTERS, 0))
            for key in TABLE_COUNTERS:
                totals[key] += stats[key]
    return merged


def _merge_counters(sections: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Integer counters summed across partitions; the rest from partition 0."""
    merged = dict(sections[0])
    for key, value in merged.items():
        if type(value) is int and key not in _PER_PROGRAM:
            merged[key] = sum(section[key] for section in sections)
    return merged


class PartitionedEngine:
    """Routes a stream across hash partitions and merges views on read.

    ``self._partitions`` holds one engine per partition and every read goes
    through them directly.  ``backend`` places them: ``"sequential"`` (in
    this process, the default) or ``"process"`` (one worker process per
    partition behind a :class:`~repro.exec.executor._WorkerEngine` stub, real
    parallelism).  ``batch_size`` runs a
    :class:`~repro.exec.batching.BatchedEngine` inside every partition.
    """

    def __init__(
        self,
        program: TriggerProgram,
        partitions: int = DEFAULT_PARTITIONS,
        backend: str = "sequential",
        batch_size: int | None = None,
        telemetry=None,
    ) -> None:
        from repro.exec.executor import build_partition_engine, start_workers

        self.program = program
        self.spec = infer_partition_spec(program, partitions)
        # Events are accounted once, at this routing layer; the partition
        # engines run with telemetry disabled (see executor.py), so a
        # process-global enabled default cannot double count.
        if backend == "sequential":
            self._partitions = [
                build_partition_engine(program, batch_size) for _ in range(partitions)
            ]
        elif backend == "process":
            self._partitions = start_workers(program, partitions, batch_size)
        else:
            raise ExecutionError(
                f"unknown backend {backend!r}; expected 'sequential' or 'process'"
            )
        self._buffers: list[list[StreamEvent]] = [[] for _ in range(partitions)]
        self._buffered = 0
        self._positions = {
            relation: tuple(
                tuple(program.schemas[relation]).index(column) for column in columns
            )
            for relation, columns in self.spec.keys.items()
        }
        self.events_processed = 0
        self.events_routed = [0] * partitions
        self.events_broadcast = 0
        self.flushes = 0
        if telemetry is None:
            from repro.telemetry import current

            telemetry = current()
        self.telemetry = telemetry
        # (sign, relation) event counts at the routing layer (enabled only:
        # the partition engines are where per-event latency would be
        # measured, but they run disabled — routing is where partitioned
        # events are accounted exactly once).
        self._route_counts: dict[tuple[int, str], int] | None = None
        self._roundtrip_hist = None
        # Provenance configuration, remembered so the engine can answer
        # ``provenance_enabled`` without asking a partition.  The rings
        # themselves live inside the per-partition engines.
        self._provenance_config: tuple[int | None, list[str] | None] | None = None
        if telemetry.enabled:
            self._route_counts = {}
            self._roundtrip_hist = telemetry.registry.histogram(
                "repro_exec_roundtrip_seconds",
                {"backend": backend},
                help="flush round-trip: dispatch plus partition drain barrier",
            )
            telemetry.registry.add_collector(self._collect_telemetry)

    def _collect_telemetry(self, registry) -> None:
        for (sign, relation), count in (self._route_counts or {}).items():
            op = "insert" if sign > 0 else "delete"
            registry.counter(
                "repro_engine_events_total",
                {"relation": relation, "op": op},
                help="Stream events applied, by relation and operation",
            ).value = count
        routed = list(self.events_routed)
        for index, count in enumerate(routed):
            registry.gauge(
                "repro_exec_partition_events",
                {"partition": str(index)},
                help="Events routed to one partition",
            ).set(count)
        mean = sum(routed) / len(routed) if routed else 0.0
        skew = (max(routed) / mean) if mean else 0.0
        registry.gauge(
            "repro_exec_partition_skew",
            help="max/mean of per-partition routed event counts",
        ).set(skew)
        registry.counter(
            "repro_exec_events_broadcast_total", help="Events broadcast to every partition"
        ).value = self.events_broadcast
        registry.counter(
            "repro_exec_flushes_total", help="Partitioned flush barriers"
        ).value = self.flushes

    # -- data loading -----------------------------------------------------------
    def load_static(self, relation: str, rows: Iterable) -> int:
        rows = list(rows)
        loaded = 0
        for partition in self._partitions:
            loaded = partition.load_static(relation, rows)
        return loaded

    # -- stream processing ------------------------------------------------------
    def route(self, event: StreamEvent) -> int | None:
        """Partition index for a routed event, ``None`` for broadcasts."""
        positions = self._positions.get(event.relation)
        if positions is None:
            return None
        key = tuple(event.values[p] for p in positions)
        return stable_hash(key) % self.spec.partitions

    def apply(self, event: StreamEvent) -> None:
        if event.relation not in self.program.stream_relations:
            check_stream_events(self.program, (event,))
        self._route(event)

    def apply_many(self, events: Iterable[StreamEvent]) -> int:
        """Route a slice.  All-or-nothing: relations are validated before any
        event is routed, so a rejected slice leaves the engine as it was."""
        events = list(events)
        check_stream_events(self.program, events)
        for event in events:
            self._route(event)
        return len(events)

    def _route(self, event: StreamEvent) -> None:
        index = self.route(event)
        if index is None:
            for buffer in self._buffers:
                buffer.append(event)
            self.events_broadcast += 1
            self._buffered += len(self._buffers)
        else:
            self._buffers[index].append(event)
            self.events_routed[index] += 1
            self._buffered += 1
        self.events_processed += 1
        counts = self._route_counts
        if counts is not None:
            key = (event.sign, event.relation)
            counts[key] = counts.get(key, 0) + 1
        if self._buffered >= ROUTE_BUFFER:
            self._dispatch()

    def _dispatch(self) -> None:
        for partition, buffer in zip(self._partitions, self._buffers):
            if buffer:
                partition.apply_many(buffer)
        self._buffers = [[] for _ in self._partitions]
        self._buffered = 0

    def flush(self) -> None:
        """Dispatch buffered events and wait for every partition to drain.

        Two phases, so worker processes drain concurrently: every partition
        flushes (a worker stub only sends the request and hands back the
        collector of its answer), then every collector is called.
        """
        self.flushes += 1
        started = perf_counter()
        self._dispatch()
        # Every answer is collected before a failure is raised: one left in
        # a pipe would be read as the answer to that worker's next call.
        failure = None
        for collect in [partition.flush() for partition in self._partitions]:
            try:
                if collect is not None:
                    collect()
            except Exception as exc:
                failure = failure or exc
        if failure is not None:
            raise failure
        if self._roundtrip_hist is not None:
            self._roundtrip_hist.observe(perf_counter() - started)

    # -- reading views ----------------------------------------------------------
    def _map_name(self, name: str | None) -> str:
        decl = self.program.view_map(name)
        if decl is None:
            raise ExecutionError(f"unknown view {name!r}")
        return decl.name

    def merged_items(self, name: str | None = None) -> tuple[tuple[str, ...], dict[tuple, Any]]:
        """Merged ``key tuple -> value`` contents of one map, plus its columns."""
        map_name = self._map_name(name)
        self.flush()
        columns = self.program.maps[map_name].keys
        merge = self.spec.merge.get(map_name, MERGE_UNMERGEABLE)
        if merge == MERGE_REPLICATED:
            return columns, self._partitions[0].result_dict(map_name)
        if merge == MERGE_SUM:
            merged: dict[tuple, Any] = {}
            for partition in self._partitions:
                for key, value in partition.result_dict(map_name).items():
                    total = merged.get(key, 0) + value
                    merged[key] = total
            return columns, {k: v for k, v in merged.items() if not is_zero(v)}
        raise ExecutionError(
            f"map {map_name!r} cannot be merged across partitions "
            f"(nonlinear in a partitioned relation); read a root view instead"
        )

    def view(self, name: str | None = None) -> GMR:
        columns, merged = self.merged_items(name)
        return GMR((Row(zip(columns, key)), value) for key, value in merged.items())

    def scalar_result(self, name: str | None = None) -> Any:
        return self.view(name).total_multiplicity()

    def result_dict(self, name: str | None = None) -> dict[tuple, Any]:
        _, merged = self.merged_items(name)
        return merged

    # -- row provenance ----------------------------------------------------------
    @property
    def provenance_enabled(self) -> bool:
        return self._provenance_config is not None

    def enable_provenance(
        self, depth: int | None = None, views: list[str] | None = None
    ) -> None:
        """Enable delta-history rings inside every partition engine.

        Each partition records the transitions *it* executed: a routed event
        shows up in exactly one partition's ring, a broadcast in all of them.
        ``explain_row`` merges the per-partition histories back together.
        """
        self.flush()
        view_list = list(views) if views is not None else None
        for partition in self._partitions:
            partition.enable_provenance(depth, view_list)
        self._provenance_config = (depth, view_list)

    def explain_row(
        self, view: str | None = None, key: Iterable[Any] | None = None
    ) -> dict[str, Any]:
        """Merged recent mutation history of one view (optionally one key).

        Per-partition entries are tagged with their ``partition`` index and
        ordered by ``(partition, version)`` — versions count events *within*
        a partition, so they are not comparable across partitions.
        """
        if self._provenance_config is None:
            raise ExecutionError(
                "row provenance is disabled; call enable_provenance() "
                "(or serve with --provenance-depth)"
            )
        self.flush()
        key_tuple = tuple(key) if key is not None else None
        reports = [partition.explain_row(view, key_tuple) for partition in self._partitions]
        history: list[dict[str, Any]] = []
        for index, report in enumerate(reports):
            for entry in report["history"]:
                entry["partition"] = index
                history.append(entry)
        merged: dict[str, Any] = {
            "view": reports[0]["view"],
            "map": reports[0]["map"],
            "columns": reports[0]["columns"],
            "key": reports[0]["key"],
            "depth": reports[0]["depth"],
            "partitions": self.spec.partitions,
            "history": history,
        }
        if key_tuple is not None:
            map_name = self._map_name(view)
            merged["current"] = self.result_dict(map_name).get(key_tuple, 0)
        return merged

    # -- accounting --------------------------------------------------------------
    def memory_bytes(self) -> int:
        self.flush()
        return sum(partition.memory_bytes() for partition in self._partitions)

    def map_sizes(self) -> dict[str, int]:
        """Summed per-partition entry counts (resident entries, not merged)."""
        self.flush()
        totals: dict[str, int] = {}
        for partition in self._partitions:
            for name, size in partition.map_sizes().items():
                totals[name] = totals.get(name, 0) + size
        return totals

    def statistics(self) -> dict[str, object]:
        """The ``repro.stats/1`` document, merged across partitions.

        ``maps``/``relations`` sum :data:`TABLE_COUNTERS` per name;
        ``codegen``/``batching`` sum their integer counters; configuration,
        per-program facts and non-integer fields come from partition 0.  ``partitioning`` carries the spec, the
        routing counters and every partition's own document.
        """
        self.flush()
        partitions = [partition.statistics() for partition in self._partitions]
        stats: dict[str, object] = {
            "schema": STATS_SCHEMA,
            "mode": "partitioned",
            "events_processed": self.events_processed,
            "memory_bytes": sum(p["memory_bytes"] for p in partitions),
            "maps": _merge_tables([p["maps"] for p in partitions]),
            "relations": _merge_tables([p["relations"] for p in partitions]),
        }
        for section in ("codegen", "batching"):
            if section in partitions[0]:
                stats[section] = _merge_counters([p[section] for p in partitions])
        stats["partitioning"] = {
            "spec": {
                "partitions": self.spec.partitions,
                "keys": {r: list(c) for r, c in sorted(self.spec.keys.items())},
                "replicated": sorted(self.spec.replicated),
            },
            "events_routed": list(self.events_routed),
            "events_broadcast": self.events_broadcast,
            "flushes": self.flushes,
            "partitions": partitions,
        }
        return stats

    def describe(self) -> str:
        return f"{self.spec.describe()}\n{self.program.pretty()}"

    # -- durable state -----------------------------------------------------------
    def checkpoint_state(self) -> dict[str, Any]:
        """One single-engine state per partition plus the routing counters.

        Restoring requires an identical partition layout (count and keys):
        per-partition map contents cannot be re-sharded after the fact.
        """
        self.flush()
        return {
            "format": STATE_FORMAT,
            "kind": STATE_PARTITIONED,
            "partitions": self.spec.partitions,
            "keys": {r: list(c) for r, c in sorted(self.spec.keys.items())},
            "events_processed": self.events_processed,
            "events_routed": list(self.events_routed),
            "events_broadcast": self.events_broadcast,
            "states": [partition.checkpoint_state() for partition in self._partitions],
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Load a :meth:`checkpoint_state` dictionary into this engine."""
        if state.get("kind") != STATE_PARTITIONED:
            raise ExecutionError(
                f"cannot restore a {state.get('kind')!r} state into a partitioned engine"
            )
        if state.get("format") != STATE_FORMAT:
            raise ExecutionError(
                f"engine state has format {state.get('format')!r}; "
                f"this build reads format {STATE_FORMAT}"
            )
        if state["partitions"] != self.spec.partitions:
            raise ExecutionError(
                f"state has {state['partitions']} partitions, engine has "
                f"{self.spec.partitions}"
            )
        keys = {r: list(c) for r, c in sorted(self.spec.keys.items())}
        if state["keys"] != keys:
            raise ExecutionError(
                f"state partition keys {state['keys']} do not match engine keys {keys}"
            )
        self._buffers = [[] for _ in self._partitions]
        self._buffered = 0
        for partition, partition_state in zip(self._partitions, state["states"]):
            partition.restore_state(partition_state)
        # Partition engines auto-enable provenance from their own saved
        # states; mirror that into this layer's flag so explain_row works.
        if self._provenance_config is None:
            for partition_state in state["states"]:
                saved = partition_state.get("provenance")
                if saved:
                    self._provenance_config = (
                        saved.get("depth"),
                        sorted(saved.get("views", ())),
                    )
                    break
        self.events_processed = int(state["events_processed"])
        self.events_routed = list(state["events_routed"])
        self.events_broadcast = int(state["events_broadcast"])

    def close(self) -> None:
        """Close every partition (stops worker processes)."""
        for partition in self._partitions:
            partition.close()

    def __enter__(self) -> "PartitionedEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
