"""Trigger-program interpreter.

Executes the update statements of a compiled
:class:`~repro.compiler.program.TriggerProgram` against a
:class:`~repro.runtime.maps.MapStore` (and, where needed, a
:class:`~repro.runtime.database.Database` of base relations).

Statement semantics:

* ``target[keys] += expr`` — evaluate ``expr`` under the trigger bindings and
  add every result row's multiplicity to the map entry obtained by projecting
  the row (plus the bindings) onto the target keys;
* ``target[keys] := expr`` — evaluate ``expr`` and *replace* the map contents
  with the result grouped by the target keys.

Within one event, ``+=`` statements run against the pre-update state of the
maps and base relations (they implement ``Q(D + ∆D) - Q(D)``), the base
relations are then brought up to date, and ``:=`` statements run last against
the post-update state; the compiler orders statements accordingly.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.agca.evaluator import Evaluator
from repro.compiler.program import ASSIGN, INCREMENT, Statement, TriggerProgram
from repro.core.rows import Row
from repro.delta.events import StreamEvent
from repro.errors import RuntimeEngineError
from repro.runtime.database import Database
from repro.runtime.maps import MapStore


class RuntimeSource:
    """DataSource combining base relations and materialized maps.

    This is where the evaluator's :class:`Row` environment meets positional
    storage: scans turn each stored key tuple into a ``Row`` (and the
    executor below writes key tuples back).  Column tuples are immutable
    once a relation/map is declared, so both lookups are cached here: the
    evaluator asks for them on every atom of every statement of every event,
    and the dict probe beats the two attribute hops plus table lookup they
    would otherwise cost.
    """

    __slots__ = ("_database", "_maps", "_relation_columns", "_map_columns")

    def __init__(self, database: Database, maps: MapStore) -> None:
        self._database = database
        self._maps = maps
        self._relation_columns: dict[str, tuple[str, ...]] = {}
        self._map_columns: dict[str, tuple[str, ...]] = {}

    def relation_columns(self, name: str) -> tuple[str, ...]:
        columns = self._relation_columns.get(name)
        if columns is None:
            columns = self._database.relation_columns(name)
            self._relation_columns[name] = columns
        return columns

    def scan_relation(self, name: str, bound: Mapping[str, Any]) -> Iterator:
        return self._database.table(name).scan_rows(bound)

    def map_columns(self, name: str) -> tuple[str, ...]:
        columns = self._map_columns.get(name)
        if columns is None:
            columns = self._maps.map_columns(name)
            self._map_columns[name] = columns
        return columns

    def scan_map(self, name: str, bound: Mapping[str, Any]) -> Iterator:
        return self._maps.table(name).scan_rows(bound)

    def range_sum(self, name: str, column: str, op: str, cutoff: Any, chain: bool = True):
        """Ordered-index probe for comparison-guarded nested aggregates.

        Exposing this marks the source as range-probe capable: the evaluator
        routes ``AggSum([], M[k] * {k op c})`` / ``Exists`` shapes here
        instead of scanning.  Results are bit-identical to the scan (see
        :meth:`repro.runtime.maps.IndexedTable.range_sum`).
        """
        return self._maps.table(name).range_sum(column, op, cutoff, chain)


class TriggerExecutor:
    """Applies stream events to the materialized views of one program."""

    def __init__(
        self,
        program: TriggerProgram,
        database: Database,
        maps: MapStore,
        maintained_relations: frozenset[str] = frozenset(),
    ) -> None:
        self._program = program
        self._database = database
        self._maps = maps
        self._maintained = maintained_relations
        self._evaluator = Evaluator(RuntimeSource(database, maps))

    @property
    def evaluator(self) -> Evaluator:
        """The evaluator bound to this executor's maps and base relations."""
        return self._evaluator

    @property
    def maintained_relations(self) -> frozenset[str]:
        """Stream relations maintained as base tables by this executor."""
        return self._maintained

    # -- event application -----------------------------------------------------
    def apply(self, event: StreamEvent) -> None:
        """Apply one insert/delete event: run its trigger and update base tables."""
        trigger = self._program.trigger_for(event.sign, event.relation)
        statements = trigger.statements if trigger is not None else []

        increments = [s for s in statements if s.operation == INCREMENT]
        assigns = [s for s in statements if s.operation == ASSIGN]

        for statement in increments:
            self.execute_increment(statement, statement.event.bindings_for(event))

        if event.relation in self._maintained:
            self._database.apply(event)

        for statement in assigns:
            self.execute_assign(statement, statement.event.bindings_for(event))

    # -- statement execution -------------------------------------------------------
    def execute_increment(self, statement: Statement, bindings: Mapping[str, Any]) -> None:
        """Run one ``+=`` statement under explicit trigger-variable bindings."""
        result = self._evaluator.evaluate(statement.expr, bindings)
        if not result:
            return
        table = self._maps.table(statement.target)
        keys = statement.target_keys
        for row, multiplicity in result.items():
            table.add(self._key_values(keys, row, bindings, statement), multiplicity)

    def execute_assign(self, statement: Statement, bindings: Mapping[str, Any]) -> None:
        """Run one ``:=`` statement under explicit trigger-variable bindings."""
        result = self._evaluator.evaluate(statement.expr, bindings)
        table = self._maps.table(statement.target)
        keys = statement.target_keys
        grouped: dict[tuple, Any] = {}
        for row, multiplicity in result.items():
            key = self._key_values(keys, row, bindings, statement)
            grouped[key] = grouped.get(key, 0) + multiplicity
        table.replace(grouped.items())

    @staticmethod
    def _key_values(
        keys: tuple[str, ...],
        row: Row,
        bindings: Mapping[str, Any],
        statement: Statement,
    ) -> tuple[Any, ...]:
        values = []
        for key in keys:
            if key in row:
                values.append(row[key])
            elif key in bindings:
                values.append(bindings[key])
            else:
                raise RuntimeEngineError(
                    f"statement for {statement.target!r} produced no value for key "
                    f"{key!r}: {statement.pretty()}"
                )
        return tuple(values)
