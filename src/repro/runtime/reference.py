"""A naive reference engine (correctness oracle and DBX/SPY stand-in).

The paper compares DBToaster against a commercial DBMS ("DBX") and a stream
processor ("SPY"), both of which effectively recompute the query from their
stored base tables on every update, paying interpretation and bookkeeping
overhead for every statement.  Neither system is available here, so this
module provides the substitution described in DESIGN.md: a deliberately simple
row-at-a-time engine that

* stores base relations as plain lists of dictionaries, and
* evaluates AGCA queries with unindexed nested loops and **no** sharing,
  memoization or sideways-binding shortcuts.

Because the evaluation code is written independently of
:mod:`repro.agca.evaluator`, it doubles as an oracle in the test suite: both
implementations must agree on every query and database the property tests
generate.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.agca.ast import (
    AggSum,
    Cmp,
    Exists,
    Expr,
    Lift,
    MapRef,
    Product,
    Relation,
    Sum,
    Value,
)
from repro.agca.evaluator import eval_value
from repro.core.gmr import GMR
from repro.core.rows import Row
from repro.core.values import comparison_holds, is_zero
from repro.delta.events import StreamEvent
from repro.errors import EvaluationError, RuntimeEngineError

RefRow = dict[str, Any]
RefResult = list[tuple[RefRow, Any]]


def _combine(rows: RefResult) -> RefResult:
    merged: dict[tuple, tuple[RefRow, Any]] = {}
    for row, mult in rows:
        key = tuple(sorted(row.items()))
        if key in merged:
            merged[key] = (row, merged[key][1] + mult)
        else:
            merged[key] = (dict(row), mult)
    return [(row, mult) for row, mult in merged.values() if not is_zero(mult)]


def evaluate_reference(
    expr: Expr, tables: Mapping[str, Sequence[tuple[RefRow, Any]]], context: RefRow | None = None
) -> RefResult:
    """Evaluate ``expr`` with plain nested loops over list-of-dict tables."""
    ctx = dict(context or {})
    return _combine(_eval(expr, tables, ctx))


def _total(rows: RefResult) -> Any:
    """Sum of multiplicities without assuming a numeric type.

    Lifted values may be non-numeric (``(seg ^= 'BUILDING')`` lifts a string),
    so the fold starts from the first multiplicity instead of ``0``.
    """
    if not rows:
        return 0
    total = rows[0][1]
    for _, mult in rows[1:]:
        total = total + mult
    return total


def _eval(expr: Expr, tables: Mapping[str, Sequence[tuple[RefRow, Any]]], ctx: RefRow) -> RefResult:
    if isinstance(expr, Value):
        value = eval_value(expr.vexpr, ctx)
        return [] if is_zero(value) else [({}, value)]

    if isinstance(expr, Cmp):
        left = eval_value(expr.left, ctx)
        right = eval_value(expr.right, ctx)
        return [({}, 1)] if comparison_holds(left, expr.op, right) else []

    if isinstance(expr, Relation):
        out: RefResult = []
        for stored, mult in tables.get(expr.name, ()):  # stored keys are positional "_0", "_1", ...
            renamed: RefRow = {}
            ok = True
            for position, column in enumerate(expr.columns):
                value = stored[f"_{position}"]
                if column in renamed and renamed[column] != value:
                    ok = False
                    break
                renamed[column] = value
            if not ok:
                continue
            if any(column in ctx and ctx[column] != value for column, value in renamed.items()):
                continue
            out.append((renamed, mult))
        return out

    if isinstance(expr, MapRef):
        raise EvaluationError("the reference engine evaluates queries over base relations only")

    if isinstance(expr, Product):
        partial: RefResult = [({}, 1)]
        for term in expr.terms:
            grown: RefResult = []
            for row, mult in partial:
                local_ctx = dict(ctx)
                local_ctx.update(row)
                for rrow, rmult in _eval(term, tables, local_ctx):
                    if any(k in row and row[k] != v for k, v in rrow.items()):
                        continue
                    merged = dict(row)
                    merged.update(rrow)
                    grown.append((merged, mult * rmult))
            partial = grown
            if not partial:
                return []
        return partial

    if isinstance(expr, Sum):
        out = []
        for term in expr.terms:
            out.extend(_eval(term, tables, ctx))
        return out

    if isinstance(expr, AggSum):
        inner = _eval(expr.term, tables, ctx)
        grouped: dict[tuple, tuple[RefRow, Any]] = {}
        for row, mult in inner:
            key_row = {}
            for g in expr.group:
                if g in row:
                    key_row[g] = row[g]
                elif g in ctx:
                    key_row[g] = ctx[g]
                else:
                    raise EvaluationError(f"group variable {g!r} unbound in reference evaluation")
            key = tuple(sorted(key_row.items()))
            if key in grouped:
                grouped[key] = (key_row, grouped[key][1] + mult)
            else:
                grouped[key] = (key_row, mult)
        return [(row, mult) for row, mult in grouped.values()]

    if isinstance(expr, Lift):
        value = _total(_eval(expr.term, tables, ctx))
        if expr.var in ctx:
            return [({}, 1)] if ctx[expr.var] == value else []
        return [({expr.var: value}, 1)]

    if isinstance(expr, Exists):
        value = _total(_eval(expr.term, tables, ctx))
        return [({}, 1)] if not is_zero(value) else []

    raise TypeError(f"not an AGCA expression: {expr!r}")


class ReferenceEngine:
    """Recompute-per-update engine over list-of-dict base tables."""

    def __init__(
        self,
        queries: Expr | Mapping[str, Expr],
        schemas: Mapping[str, Sequence[str]],
        name: str = "Q",
    ) -> None:
        if not isinstance(queries, Mapping):
            queries = {name: queries}
        self.queries = dict(queries)
        self.schemas = {rel: tuple(cols) for rel, cols in schemas.items()}
        self._tables: dict[str, list[tuple[RefRow, Any]]] = {rel: [] for rel in self.schemas}
        self._results: dict[str, RefResult] = {qname: [] for qname in self.queries}
        self.events_processed = 0

    # -- data loading ----------------------------------------------------------
    def load_static(self, relation: str, rows: Iterable[Sequence[Any] | Mapping[str, Any]]) -> int:
        """Bulk-load a static relation (no view refresh)."""
        count = 0
        for row in rows:
            self._store(relation, row, 1)
            count += 1
        return count

    def _store(self, relation: str, row: Sequence[Any] | Mapping[str, Any], sign: int) -> None:
        columns = self.schemas[relation]
        if isinstance(row, Mapping):
            values = tuple(row[c] for c in columns)
        else:
            values = tuple(row)
        if len(values) != len(columns):
            raise RuntimeEngineError(
                f"arity mismatch loading {relation!r}: got {len(values)} values"
            )
        stored = {f"_{i}": v for i, v in enumerate(values)}
        table = self._tables[relation]
        for i, (existing, mult) in enumerate(table):
            if existing == stored:
                new_mult = mult + sign
                if is_zero(new_mult):
                    table.pop(i)
                else:
                    table[i] = (existing, new_mult)
                return
        table.append((stored, sign))

    # -- stream processing ----------------------------------------------------------
    def apply(self, event: StreamEvent) -> None:
        """Apply one event: update the base table, then recompute every query."""
        if event.relation not in self.schemas:
            raise RuntimeEngineError(f"unknown relation {event.relation!r}")
        self._store(event.relation, event.values, event.sign)
        for qname, expr in self.queries.items():
            self._results[qname] = evaluate_reference(expr, self._tables)
        self.events_processed += 1

    def apply_many(self, events: Iterable[StreamEvent]) -> int:
        """Apply a sequence of events; returns how many were processed."""
        count = 0
        for event in events:
            self.apply(event)
            count += 1
        return count

    def flush(self) -> None:
        """No-op: every event is applied (and recomputed) on arrival."""

    def close(self) -> None:
        """No-op: the reference engine owns no external resources."""

    # -- reading results --------------------------------------------------------------
    def view(self, name: str | None = None) -> GMR:
        """Current result of a query as a GMR."""
        if name is None:
            if len(self.queries) != 1:
                raise RuntimeEngineError("several queries registered; name one explicitly")
            name = next(iter(self.queries))
        return GMR((Row(row), mult) for row, mult in self._results[name])

    def scalar_result(self, name: str | None = None) -> Any:
        """The value of a scalar (non-grouping) query."""
        return self.view(name).total_multiplicity()

    def result_dict(self, name: str | None = None) -> dict[tuple, Any]:
        """Query result keyed by the tuple of group values (sorted column order)."""
        view = self.view(name)
        out: dict[tuple, Any] = {}
        for row, value in view.items():
            out[tuple(row[c] for c in sorted(row.columns))] = value
        return out

    def memory_bytes(self) -> int:
        """Approximate resident size of the stored base tables."""
        total = 0
        for table in self._tables.values():
            total += sum(64 * (len(row) + 1) for row, _ in table)
        return total
