"""Trigger-program intermediate representation.

The output of Higher-Order IVM (and of the naive viewlet transform) is a
*trigger program*:

* a set of :class:`MapDeclaration` — the materialized views, each a map from
  key tuples to aggregate values, defined by an AGCA query over the base
  relations (used for documentation, testing and re-initialization);
* for every stream relation and update direction, a :class:`Trigger` holding
  the ordered list of :class:`Statement` update statements, of the form
  ``foreach keys: target[keys] += expr`` or ``target[keys] := expr``.

Statement right-hand sides reference materialized maps (:class:`MapRef`
atoms), trigger variables, static relations and — for depth-limited
compilations emulating classical IVM / re-evaluation — base stream relations.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

from repro.agca.ast import Expr, free_variables, maps_of, relations_of
from repro.agca.printer import to_string
from repro.agca.schema import degree
from repro.delta.events import TriggerEvent

ASSIGN = ":="
INCREMENT = "+="


@dataclass(frozen=True)
class MapDeclaration:
    """A materialized view: ``name[keys] := definition`` (over base relations)."""

    name: str
    keys: tuple[str, ...]
    definition: Expr
    level: int = 0
    description: str = ""

    @property
    def degree(self) -> int:
        """Number of base relation atoms joined in the definition."""
        return degree(self.definition)

    def pretty(self) -> str:
        """One-line rendering, e.g. ``Q_LI[ck, ok] := Sum[ck, ok](...)``."""
        keys = ", ".join(self.keys)
        return f"{self.name}[{keys}] := {to_string(self.definition)}"


@dataclass(frozen=True)
class Statement:
    """One update statement inside a trigger.

    ``operation`` is ``"+="`` (add the right-hand side's rows to the target
    map, the viewlet-transform form) or ``":="`` (recompute the target map
    from scratch, used when re-evaluation beats incremental maintenance).
    ``event`` records the symbolic trigger event the statement was derived
    for; its trigger variables are the free parameters of ``expr``.
    """

    target: str
    target_keys: tuple[str, ...]
    operation: str
    expr: Expr
    event: TriggerEvent
    target_degree: int = 0

    def reads_maps(self) -> frozenset[str]:
        """Names of materialized maps read by the right-hand side."""
        return maps_of(self.expr)

    def reads_relations(self) -> frozenset[str]:
        """Names of base relations read directly by the right-hand side."""
        return relations_of(self.expr)

    def loop_keys(self) -> tuple[str, ...]:
        """Target keys that are not pinned to trigger variables (loop variables)."""
        bound = set(self.event.trigger_vars)
        return tuple(k for k in self.target_keys if k not in bound)

    def pretty(self) -> str:
        """One-line rendering, e.g. ``foreach ck: Q[ck] += ...``."""
        loops = self.loop_keys()
        prefix = f"foreach {', '.join(loops)}: " if loops else ""
        keys = ", ".join(self.target_keys)
        return f"{prefix}{self.target}[{keys}] {self.operation} {to_string(self.expr)}"


@dataclass
class Trigger:
    """All statements to run when one kind of event arrives (e.g. insert into R)."""

    relation: str
    sign: int
    statements: list[Statement] = field(default_factory=list)

    @property
    def name(self) -> str:
        """Stable identifier like ``insert_lineitem``."""
        kind = "insert" if self.sign > 0 else "delete"
        return f"{kind}_{self.relation.lower()}"

    def bulk_safe(self) -> bool:
        """Whether one pass over a run of this trigger's events is exact.

        True when no ``+=`` statement reads a map this trigger writes or the
        triggering base relation itself, and no ``:=`` statement depends on
        the trigger variables: every event's deltas then read state the run
        does not change, so they may be applied in any grouping, and one
        re-evaluation after the run equals the last per-event one.
        """
        writes = {statement.target for statement in self.statements}
        for statement in self.statements:
            if statement.operation == ASSIGN:
                trigger_vars = set(statement.event.trigger_vars)
                if free_variables(statement.expr) & trigger_vars:
                    return False
                if any(key in trigger_vars for key in statement.target_keys):
                    return False
            elif statement.reads_maps() & writes or self.relation in statement.reads_relations():
                return False
        return True

    def pretty(self) -> str:
        """Multi-line rendering of the whole trigger body."""
        kind = "insert into" if self.sign > 0 else "delete from"
        header = f"on {kind} {self.relation}:"
        body = "\n".join(f"  {stmt.pretty()}" for stmt in self.statements)
        return f"{header}\n{body}" if body else f"{header}\n  (no-op)"


@dataclass
class TriggerProgram:
    """A compiled query: map declarations plus per-event triggers."""

    roots: dict[str, str]
    maps: dict[str, MapDeclaration]
    triggers: dict[str, Trigger]
    schemas: dict[str, tuple[str, ...]]
    stream_relations: tuple[str, ...]
    static_relations: tuple[str, ...] = ()

    # -- lookup helpers ------------------------------------------------------
    def root_map(self, query: str | None = None) -> MapDeclaration:
        """The map holding a root query's result (the single root by default)."""
        if query is None:
            if len(self.roots) != 1:
                raise KeyError(
                    f"program has {len(self.roots)} roots; specify one of {sorted(self.roots)}"
                )
            query = next(iter(self.roots))
        return self.maps[self.roots[query]]

    def view_map(self, name: str | None = None) -> MapDeclaration | None:
        """The map behind a view name — a root query (the single root when
        ``name`` is None) or a map name — or None when it names neither."""
        if name in self.roots:
            return self.maps[self.roots[name]]
        return self.root_map() if name is None else self.maps.get(name)

    def trigger_for(self, sign: int, relation: str) -> Trigger | None:
        """The trigger handling ``sign`` (+1/-1) updates of ``relation``, if any."""
        kind = "insert" if sign > 0 else "delete"
        return self.triggers.get(f"{kind}_{relation.lower()}")

    def statements(self) -> Iterator[Statement]:
        """Iterate over every statement of every trigger."""
        for trigger in self.triggers.values():
            yield from trigger.statements

    # -- program-level properties ------------------------------------------------
    def referenced_relations(self) -> frozenset[str]:
        """Base relations read directly by any statement (need to be stored)."""
        out: set[str] = set()
        for stmt in self.statements():
            out.update(stmt.reads_relations())
        return frozenset(out)

    @cached_property
    def _base_relations(self) -> frozenset[str]:
        return self.referenced_relations() & frozenset(self.stream_relations)

    def requires_base_relations(self) -> frozenset[str]:
        """Stream relations that must be maintained as base tables at runtime.

        Computed once: a program is not modified after compilation, the
        answer walks every statement's expression, and the code generator
        asks for every statement it plans.
        """
        return self._base_relations

    @cached_property
    def stream_arities(self) -> dict[str, int]:
        """The number of values each stream relation's events carry."""
        return {relation: len(self.schemas[relation]) for relation in self.stream_relations}

    @cached_property
    def digest(self) -> str:
        """A 64-bit checksum naming this program: maps, keys, definitions, statements.

        Two compilations agree on it exactly when a state written by one can
        be loaded by the other — same map names keyed the same way over the
        same definitions, maintained by the same statements.  Compilation is
        deterministic (no iteration over hash-ordered sets reaches the
        output), so the digest is stable across processes and hash seeds;
        engine checkpoints carry it and refuse to load under a different one.
        """
        text = self.pretty().encode()
        # Two independent 32-bit checksums from zlib (already loaded for the
        # WAL); hashlib would pull OpenSSL into every process for 3.5 MB.
        return f"{zlib.crc32(text):08x}{zlib.adler32(text):08x}"

    def map_count(self) -> int:
        """Number of materialized views (including roots)."""
        return len(self.maps)

    def statement_count(self) -> int:
        """Total number of update statements across all triggers."""
        return sum(len(t.statements) for t in self.triggers.values())

    def summary(self) -> dict[str, int]:
        """Compact metrics used by reports and the Figure-2 style feature table."""
        return {
            "maps": self.map_count(),
            "statements": self.statement_count(),
            "triggers": len(self.triggers),
            "max_degree": max((m.degree for m in self.maps.values()), default=0),
            "reeval_statements": sum(
                1 for s in self.statements() if s.operation == ASSIGN
            ),
        }

    def pretty(self) -> str:
        """Full human-readable listing of maps and triggers (paper Figure 3 style)."""
        lines = ["-- materialized views --"]
        for decl in self.maps.values():
            lines.append(f"  {decl.pretty()}")
        lines.append("-- triggers --")
        for trigger in self.triggers.values():
            lines.append(trigger.pretty())
        return "\n".join(lines)


def order_statements(statements: Sequence[Statement]) -> list[Statement]:
    """Order a trigger's statements so each reads the view versions it expects.

    ``+=`` statements implement ``Q(D + ∆D) - Q(D)`` and must read the *old*
    contents of the maps they use, so they run first, parents (higher degree)
    before the children that maintain those maps (lower degree).  ``:=``
    statements re-evaluate their target from the *new* contents, so they run
    last, lowest degree first.
    """
    increments = [s for s in statements if s.operation == INCREMENT]
    assigns = [s for s in statements if s.operation == ASSIGN]
    increments.sort(key=lambda s: -s.target_degree)
    assigns.sort(key=lambda s: s.target_degree)
    return increments + assigns
