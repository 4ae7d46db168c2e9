"""Base-relation storage.

The incremental engines mostly do *not* need the base relations (that is one
of DBToaster's memory advantages), but three situations do:

* static relations (Nation, Region, the MDDB metadata tables) are loaded once
  before stream processing and read directly by statements;
* depth-limited compilations (classical IVM, full re-evaluation) evaluate
  delta/definition queries over the base tables;
* materialization fallbacks may leave a base relation reference inside a
  statement.

:class:`Database` stores relations in the same indexed tables used for maps
(keyed by the tuple of a relation's values in schema order) and exposes the
relation side of the evaluator's ``DataSource`` protocol.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.core.gmr import GMR
from repro.core.rows import Row
from repro.delta.events import StreamEvent
from repro.errors import RuntimeEngineError
from repro.runtime.maps import IndexedTable


class Database:
    """A collection of base relations stored as indexed tables."""

    def __init__(self, schemas: Mapping[str, Sequence[str]] | None = None) -> None:
        self._schemas: dict[str, tuple[str, ...]] = {}
        self._tables: dict[str, IndexedTable] = {}
        for name, columns in (schemas or {}).items():
            self.declare(name, columns)

    # -- schema management -----------------------------------------------------
    def declare(self, name: str, columns: Sequence[str]) -> None:
        """Declare a relation with its ordered column names."""
        if name in self._schemas:
            if self._schemas[name] != tuple(columns):
                raise RuntimeEngineError(
                    f"relation {name!r} already declared with different columns"
                )
            return
        self._schemas[name] = tuple(columns)
        self._tables[name] = IndexedTable(columns)

    def relations(self) -> tuple[str, ...]:
        """All declared relation names."""
        return tuple(self._schemas)

    def schema(self, name: str) -> tuple[str, ...]:
        """Ordered column names of ``name``."""
        try:
            return self._schemas[name]
        except KeyError:
            raise RuntimeEngineError(f"unknown relation {name!r}") from None

    def table(self, name: str) -> IndexedTable:
        """The indexed table storing ``name``."""
        try:
            return self._tables[name]
        except KeyError:
            raise RuntimeEngineError(f"unknown relation {name!r}") from None

    # -- updates ------------------------------------------------------------------
    def apply(self, event: StreamEvent) -> None:
        """Apply a single-tuple insert/delete to the stored relation."""
        table = self.table(event.relation)
        if len(event.values) != len(table.columns):
            raise RuntimeEngineError(
                f"event arity {len(event.values)} does not match schema of "
                f"{event.relation!r} ({len(table.columns)} columns)"
            )
        table.add(event.values, event.sign)

    def load(self, name: str, rows: Iterable[Sequence[Any] | Mapping[str, Any]]) -> int:
        """Bulk-load rows into a relation (used for static tables); returns the count."""
        table = self.table(name)
        count = 0
        for row in rows:
            if isinstance(row, Mapping):
                values = tuple(row[c] for c in table.columns)
            else:
                values = tuple(row)
            table.add(values, 1)
            count += 1
        return count

    # -- DataSource protocol (relation side) ------------------------------------------
    def relation_columns(self, name: str) -> tuple[str, ...]:
        return self.schema(name)

    def scan_relation(self, name: str, bound: Mapping[str, Any]) -> Iterator[tuple[Row, Any]]:
        return self.table(name).scan_rows(bound)

    # -- conveniences -----------------------------------------------------------------------
    def contents(self, name: str) -> GMR:
        """Snapshot of a relation as a GMR."""
        return self.table(name).to_gmr()

    def sizes(self) -> dict[str, int]:
        """Tuple counts per relation."""
        return {name: len(table) for name, table in self._tables.items()}

    def memory_bytes(self) -> int:
        """Approximate resident size of all stored relations."""
        return sum(table.memory_bytes() for table in self._tables.values())

    def stats(self) -> dict[str, dict[str, object]]:
        """Per-relation entry/memory/secondary-index statistics."""
        return {name: table.stats() for name, table in self._tables.items()}
