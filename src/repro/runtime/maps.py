"""Map data structures for materialized views (Sections 5.2 and 7.1).

The generated C++/Scala runtimes of the paper store views in multi-indexed
map containers (Boost Multi-Index): a primary index over the full key plus
secondary hash indexes for every binding pattern occurring in the trigger
program.  :class:`IndexedTable` reproduces that design in Python: a primary
``dict`` keyed by the full key — a plain tuple in the table's declared
``columns`` order — plus lazily created, incrementally maintained secondary
indexes keyed by projections of it onto column subsets, and — for the
comparison-guarded nested aggregates of the financial workload — ordered
range indexes (:mod:`repro.runtime.ordered`) answering
``sum(value) where column op cutoff`` probes through :meth:`IndexedTable.range_sum`.
A write maintains those indexes, bumps the table's ``write_epoch`` (the key of
the vector backend's column cache) and calls the optional watcher
(provenance); it records nothing else — checkpoints copy whole tables.

:class:`MapStore` is the collection of all materialized views of one engine,
and :class:`ViewCache` implements the paper's view-cache data structure for
expressions with input variables (multiple full view copies, one per input
valuation, updated rather than invalidated on change).
"""

from __future__ import annotations

import sys
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.gmr import GMR
from repro.core.rows import Row
from repro.core.values import comparison_holds, is_zero, normalize_number
from repro.errors import RuntimeEngineError
from repro.runtime.ordered import OrderedRangeIndex


class IndexedTable:
    """A mutable map from key tuples to numeric values with secondary indexes.

    Every key is a plain tuple of values in ``columns`` order: the order of
    ``result_dict``, checkpoints and the wire.  :class:`~repro.core.rows.Row`
    keys and column mappings are accepted by :meth:`add`/:meth:`get`/
    :meth:`set` and converted; :meth:`to_gmr` converts back.
    """

    __slots__ = (
        "columns", "_arity", "_row", "_data", "_indexes", "_ordered", "probes",
        "scans", "range_probes", "_watcher", "write_epoch", "_vector_cache",
    )

    def __init__(self, columns: Sequence[str]) -> None:
        self.columns = tuple(columns)
        self._arity = len(self.columns)
        self._row = Row.factory(self.columns)  # key tuple -> Row, for the evaluator
        self._data: dict[tuple, Any] = {}
        # columns -> (projection getter, index); see index_for.
        self._indexes: dict[frozenset[str], tuple[Callable[[tuple], Any], dict]] = {}
        self._ordered: dict[str, OrderedRangeIndex] = {}
        # Always-on access counters (plain int increments); the telemetry
        # registry pulls them in at scrape time via a collector.  Generated
        # kernels probe ``primary`` directly and are accounted at the kernel
        # level instead.
        self.probes = 0
        self.scans = 0
        self.range_probes = 0
        # Optional mutation hook ``watcher(row, old, new)``, called once per
        # actual value transition (never on no-ops).  All writes — including
        # those issued by generated kernels, which bind ``add`` as a method —
        # funnel through add/set/replace/clear, so this one slot observes
        # every mutation at the cost of a single None check.
        self._watcher: Callable[[tuple, Any, Any], None] | None = None
        # Monotone write epoch: bumped once per actual value transition
        # (wholesale swaps count as one).  The vector backend's columnar-view
        # cache below — ``(write_epoch, payload)`` pairs owned by
        # repro.codegen.vector — is invalidated by epoch comparison.
        self.write_epoch = 0
        self._vector_cache: tuple | None = None

    # -- basic access -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._data)

    def __bool__(self) -> bool:
        return bool(self._data)

    def items(self) -> Iterator[tuple[tuple, Any]]:
        """Iterate over ``(key tuple, value)`` pairs."""
        return iter(self._data.items())

    def get(self, key: Mapping[str, Any] | Sequence[Any], default: Any = 0) -> Any:
        """Value stored under ``key`` (0 when absent)."""
        self.probes += 1
        return self._data.get(self._normalize(key), default)

    def to_gmr(self) -> GMR:
        """A snapshot of the table contents as a GMR (``Row``-keyed)."""
        row = self._row
        return GMR((row(key), value) for key, value in self._data.items())

    @property
    def primary(self) -> Mapping[tuple, Any]:
        """The primary ``key tuple -> value`` dictionary.

        Exposed (read-only by convention) for generated trigger code, which
        probes bound keys directly instead of going through :meth:`scan`.
        The dictionary object is replaced wholesale by :meth:`clear` /
        :meth:`replace`, so callers must re-read this property per use rather
        than caching it across mutations.
        """
        return self._data

    def index_for(self, columns: frozenset[str]) -> Mapping[Any, Mapping[tuple, Any]]:
        """The secondary index over ``columns`` (built on first use).

        Buckets map the projected key to the full ``key tuple -> value``
        entries sharing that projection; empty buckets are pruned eagerly.
        The projected key is the bare value for a one-column projection and
        otherwise the tuple of the projected values in ``columns`` order —
        the shape generated trigger code builds for its partially-bound
        probes.
        """
        entry = self._indexes.get(columns)
        if entry is None:
            positions = sorted(self.columns.index(column) for column in columns)
            project = itemgetter(*positions)
            index: dict[Any, dict[tuple, Any]] = {}
            for key, value in self._data.items():
                index.setdefault(project(key), {})[key] = value
            entry = self._indexes[columns] = (project, index)
        return entry[1]

    # -- normalization --------------------------------------------------------
    def _normalize(self, key: Mapping[str, Any] | Sequence[Any]) -> tuple:
        """``key`` as a tuple in ``columns`` order (``Row``s are mappings)."""
        if type(key) is not tuple:
            if isinstance(key, Mapping):
                if len(key) != self._arity or any(c not in key for c in self.columns):
                    raise RuntimeEngineError(
                        f"key with columns {sorted(key)} for table with columns {self.columns}"
                    )
                key = tuple([key[c] for c in self.columns])
            else:
                key = tuple(key)
        if len(key) != self._arity:
            raise RuntimeEngineError(
                f"key of arity {len(key)} for table with columns {self.columns}"
            )
        return key

    # -- mutation ---------------------------------------------------------------
    def set_watcher(self, watcher: Callable[[tuple, Any, Any], None] | None) -> None:
        """Install (or remove, with None) the mutation watcher."""
        self._watcher = watcher

    def add(self, key: Mapping[str, Any] | Sequence[Any], delta: Any) -> None:
        """Add ``delta`` to the value stored under ``key`` (removing zeros)."""
        if is_zero(delta):
            return
        # Generated kernels pass tuples of the right arity: no method call.
        if type(key) is not tuple or len(key) != self._arity:
            key = self._normalize(key)
        old = self._data.get(key)
        new = normalize_number((old or 0) + delta)
        if is_zero(new):
            if old is not None:
                del self._data[key]
                if self._indexes:
                    self._index_remove(key)
                if self._ordered:
                    self._ordered_change(key, old, None)
                self.write_epoch += 1
                if self._watcher is not None:
                    self._watcher(key, old, 0)
        else:
            self._data[key] = new
            if self._indexes:
                self._index_put(key, new)
            if self._ordered:
                self._ordered_change(key, old, new)
            self.write_epoch += 1
            if self._watcher is not None:
                self._watcher(key, 0 if old is None else old, new)

    def set(self, key: Mapping[str, Any] | Sequence[Any], value: Any) -> None:
        """Overwrite the value stored under ``key`` (removing it when zero)."""
        key = self._normalize(key)
        old = self._data.pop(key, None)
        if old is not None:
            self._index_remove(key)
        if is_zero(value):
            if old is not None:
                if self._ordered:
                    self._ordered_change(key, old, None)
                self.write_epoch += 1
                if self._watcher is not None:
                    self._watcher(key, old, 0)
            return
        new = normalize_number(value)
        self._data[key] = new
        self._index_put(key, new)
        if self._ordered:
            self._ordered_change(key, old, new)
        if old is None or old != new or type(old) is not type(new):
            self.write_epoch += 1
            if self._watcher is not None:
                self._watcher(key, 0 if old is None else old, new)

    def set_total(self, key: Mapping[str, Any] | Sequence[Any], value: Any) -> None:
        """Overwrite one key's total with *add-shaped* index maintenance.

        The vector backend commits per-key chain totals through this method:
        semantically :meth:`set` (store the normalized value, delete on
        zero), but an existing entry is updated in place in its secondary
        index buckets — like a chain of :meth:`add` calls would — instead of
        being removed and re-appended, so bucket iteration order stays
        bit-identical to the scalar path.
        """
        key = self._normalize(key)
        old = self._data.get(key)
        if is_zero(value):
            if old is not None:
                del self._data[key]
                self._index_remove(key)
                if self._ordered:
                    self._ordered_change(key, old, None)
                self.write_epoch += 1
                if self._watcher is not None:
                    self._watcher(key, old, 0)
            return
        new = normalize_number(value)
        self._data[key] = new
        self._index_put(key, new)
        if self._ordered:
            self._ordered_change(key, old, new)
        if old is None or old != new or type(old) is not type(new):
            self.write_epoch += 1
            if self._watcher is not None:
                self._watcher(key, 0 if old is None else old, new)

    def replace(self, entries: Iterable[tuple[Mapping[str, Any] | Sequence[Any], Any]]) -> None:
        """Replace the entire contents (used by ``:=`` re-evaluation statements)."""
        watcher = self._watcher
        old_data = self._data if watcher is not None else None
        had_entries = bool(self._data)
        self._data = {}
        self._indexes = {}
        self._ordered = {}
        for key, value in entries:
            if is_zero(value):
                continue
            key = self._normalize(key)
            self._data[key] = normalize_number(self._data.get(key, 0) + value)
            if is_zero(self._data[key]):
                del self._data[key]
        # Secondary and ordered indexes are rebuilt lazily on the next probe.
        if had_entries or self._data:
            self.write_epoch += 1
        if watcher is not None:
            self._diff_into_watcher(old_data, watcher)

    def clear(self) -> None:
        """Remove every entry."""
        watcher = self._watcher
        old_data = self._data if watcher is not None else None
        if self._data:
            self.write_epoch += 1
        self._data = {}
        self._indexes = {}
        self._ordered = {}
        if watcher is not None:
            self._diff_into_watcher(old_data, watcher)

    def _diff_into_watcher(
        self, old_data: Mapping[tuple, Any], watcher: Callable[[tuple, Any, Any], None]
    ) -> None:
        """Report wholesale-swap transitions (:meth:`replace` / :meth:`clear`)."""
        new_data = self._data
        for key, old in old_data.items():
            new = new_data.get(key, 0)
            if old != new or type(old) is not type(new):
                watcher(key, old, new)
        for key, new in new_data.items():
            if key not in old_data:
                watcher(key, 0, new)

    # -- scans ---------------------------------------------------------------------
    def scan(self, bound: Mapping[str, Any]) -> Iterator[tuple[tuple, Any]]:
        """Yield ``(key tuple, value)`` entries whose key agrees with ``bound``
        (a column->value mapping)."""
        self.scans += 1
        if not bound:
            yield from self._data.items()
            return
        values = tuple([bound[c] for c in self.columns if c in bound])
        if len(values) != len(bound):
            unknown = sorted(set(bound).difference(self.columns))
            raise RuntimeEngineError(
                f"scan on unknown columns {unknown}; table has {self.columns}"
            )
        if len(values) == self._arity:
            value = self._data.get(values)
            if value is not None:
                yield values, value
            return
        bucket = self.index_for(frozenset(bound)).get(
            values[0] if len(values) == 1 else values
        )
        if bucket:
            yield from bucket.items()

    def scan_rows(self, bound: Mapping[str, Any]) -> Iterator[tuple[Row, Any]]:
        """:meth:`scan` as the AGCA evaluator reads it: ``(Row, value)`` pairs."""
        row = self._row
        for key, value in self.scan(bound):
            yield row(key), value

    # -- ordered range indexes ---------------------------------------------------
    def range_index(self, column: str) -> OrderedRangeIndex:
        """The ordered range index over ``column`` (created empty on first use).

        The index fills itself from the table lazily, on the first
        :meth:`range_sum` probe; after :meth:`clear` / :meth:`replace` (and
        therefore after an engine ``restore_state``) the dictionary is simply
        dropped and the next probe rebuilds — the same lazy contract as the
        hash secondary indexes.
        """
        index = self._ordered.get(column)
        if index is None:
            if column not in self.columns:
                raise RuntimeEngineError(
                    f"range index on unknown column {column!r}; table has {self.columns}"
                )
            index = OrderedRangeIndex(column, self.columns.index(column))
            self._ordered[column] = index
        return index

    def range_sum(self, column: str, op: str, cutoff: Any, chain: bool = True) -> Any:
        """Exact ``sum(value) where column op cutoff`` over this table.

        This is the probe behind comparison-guarded nested aggregates
        (``SUM(x) WHERE col > c`` and the ``>= / < / <=`` variants).  The
        answer is bit-identical — value *and* type — to what the AGCA
        evaluator computes by scanning: the ordered index serves it in
        O(log n) while every stored value is an int/Fraction, and an in-order
        scan takes over whenever floats (or unorderable keys) make reordered
        summation unsafe.

        ``chain=True`` reproduces the GMR aggregation chain used by
        ``AggSum`` (running zero-drop and normalization per step);
        ``chain=False`` reproduces the plain summation of
        ``total_multiplicity`` used by ``Exists``.  In the exact regime both
        agree, which is the only regime the index answers in.
        """
        self.range_probes += 1
        index = self.range_index(column)
        if index.wants_rebuild:
            index.rebuild(self._data.items())
        value = index.probe(op, cutoff)
        if value is not None:
            return value
        index.scan_fallbacks += 1
        position = index.key_pos
        total: Any = 0
        if chain:
            for key, stored in self._data.items():
                if comparison_holds(key[position], op, cutoff):
                    candidate = total + stored
                    total = 0 if is_zero(candidate) else normalize_number(candidate)
            return total
        for key, stored in self._data.items():
            if comparison_holds(key[position], op, cutoff):
                total = total + stored
        return normalize_number(total)

    def _ordered_change(self, key: tuple, old: Any, new: Any) -> None:
        for index in self._ordered.values():
            index.change(key[index.key_pos], old, new)

    # -- secondary indexes ------------------------------------------------------------
    def _index_put(self, key: tuple, value: Any) -> None:
        """Store ``key``'s value in every index bucket (appended when new)."""
        for project, index in self._indexes.values():
            index.setdefault(project(key), {})[key] = value

    def _index_remove(self, key: tuple) -> None:
        for project, index in self._indexes.values():
            projected = project(key)
            bucket = index.get(projected)
            if bucket is not None:
                bucket.pop(key, None)
                if not bucket:
                    del index[projected]

    # -- accounting ----------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Rough resident size of the primary data (keys + values), in bytes."""
        total = sys.getsizeof(self._data)
        for key, value in self._data.items():
            total += sys.getsizeof(value) + 64 * max(len(key), 1)
        return total

    def index_stats(self) -> dict[str, dict[str, int]]:
        """Entry/bucket/memory counts per secondary index, keyed by its columns."""
        out: dict[str, dict[str, int]] = {}
        for columns, (_, index) in self._indexes.items():
            entries = sum(len(bucket) for bucket in index.values())
            memory = sys.getsizeof(index) + sum(
                sys.getsizeof(bucket) for bucket in index.values()
            )
            out[",".join(sorted(columns))] = {
                "buckets": len(index),
                "entries": entries,
                "memory_bytes": memory,
            }
        return out

    def ordered_index_stats(self) -> dict[str, dict[str, object]]:
        """Probe/rebuild/regime statistics per ordered range index, by column."""
        return {column: index.stats() for column, index in self._ordered.items()}

    def stats(self) -> dict[str, object]:
        """Entry count, memory and secondary-index statistics for this table."""
        out: dict[str, object] = {
            "entries": len(self._data),
            "memory_bytes": self.memory_bytes(),
            "probes": self.probes,
            "scans": self.scans,
            "range_probes": self.range_probes,
            "indexes": self.index_stats(),
        }
        if self._ordered:
            out["ordered_indexes"] = self.ordered_index_stats()
        return out


class MapStore:
    """All materialized views of one engine, addressable by name.

    ``links`` holds the generated kernels linked against this store's tables
    (:meth:`repro.codegen.trigger.LinkedKernel.bind` fills it): the kernels
    are shared by every engine over one program, the links are this
    engine's and go with it.
    """

    __slots__ = ("_tables", "links")

    def __init__(self) -> None:
        self._tables: dict[str, IndexedTable] = {}
        self.links: dict[Any, tuple[tuple, Any]] = {}

    def declare(self, name: str, columns: Sequence[str]) -> IndexedTable:
        """Create (or return) the table backing map ``name``."""
        table = self._tables.get(name)
        if table is None:
            table = IndexedTable(columns)
            self._tables[name] = table
        return table

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def table(self, name: str) -> IndexedTable:
        """The table backing map ``name`` (raises if undeclared)."""
        try:
            return self._tables[name]
        except KeyError:
            raise RuntimeEngineError(f"unknown map {name!r}") from None

    def names(self) -> tuple[str, ...]:
        """All declared map names."""
        return tuple(self._tables)

    # -- DataSource protocol (map side) --------------------------------------
    def map_columns(self, name: str) -> tuple[str, ...]:
        return self.table(name).columns

    def scan_map(self, name: str, bound: Mapping[str, Any]) -> Iterator[tuple[Row, Any]]:
        return self.table(name).scan_rows(bound)

    # -- accounting -------------------------------------------------------------
    def sizes(self) -> dict[str, int]:
        """Entry counts per map."""
        return {name: len(table) for name, table in self._tables.items()}

    def memory_bytes(self) -> int:
        """Approximate total resident size of all maps."""
        return sum(table.memory_bytes() for table in self._tables.values())

    def stats(self) -> dict[str, dict[str, object]]:
        """Per-map entry/memory/secondary-index statistics."""
        return {name: table.stats() for name, table in self._tables.items()}


class ViewCache:
    """The paper's view cache: one materialized view copy per input valuation.

    A view cache materializes an expression with input variables.  Lookups
    bind the input variables; on a miss the supplied ``compute`` callback
    evaluates the defining expression for that valuation and the result is
    cached.  Unlike an ordinary cache, entries are never invalidated: when the
    underlying data changes the caller *updates* every cached copy through
    :meth:`update_all`.
    """

    def __init__(
        self,
        input_variables: Sequence[str],
        output_columns: Sequence[str],
        compute: Callable[[Mapping[str, Any]], Iterable[tuple[Mapping[str, Any], Any]]],
    ) -> None:
        self.input_variables = tuple(input_variables)
        self.output_columns = tuple(output_columns)
        self._compute = compute
        self._entries: dict[Row, IndexedTable] = {}
        self.hits = 0
        self.misses = 0

    def _key(self, bindings: Mapping[str, Any]) -> Row:
        try:
            return Row({v: bindings[v] for v in self.input_variables})
        except KeyError as exc:
            raise RuntimeEngineError(
                f"view-cache lookup missing input variable {exc.args[0]!r}"
            ) from None

    def lookup(self, bindings: Mapping[str, Any]) -> IndexedTable:
        """The materialized view for this input valuation (computing it on a miss)."""
        key = self._key(bindings)
        table = self._entries.get(key)
        if table is not None:
            self.hits += 1
            return table
        self.misses += 1
        table = IndexedTable(self.output_columns)
        for row, value in self._compute(dict(key)):
            table.add(row, value)
        self._entries[key] = table
        return table

    def update_all(self, updater: Callable[[Mapping[str, Any], IndexedTable], None]) -> None:
        """Apply ``updater`` to every cached copy (called when base data changes)."""
        for key, table in self._entries.items():
            updater(dict(key), table)

    def __len__(self) -> int:
        return len(self._entries)

    def memory_bytes(self) -> int:
        """Approximate resident size of every cached copy."""
        return sum(table.memory_bytes() for table in self._entries.values())
