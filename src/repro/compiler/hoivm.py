"""Higher-Order IVM compilation (Algorithms 2 and 3 of the paper).

``compile_query`` turns one or more AGCA queries into a
:class:`~repro.compiler.program.TriggerProgram`:

1. every root query becomes a materialized map;
2. for every map not yet processed and every insert/delete event on a stream
   relation it references, the delta is computed, simplified, and turned into
   an update statement whose subexpressions are materialized according to the
   heuristics in :mod:`repro.compiler.materialization`;
3. newly created maps are processed recursively until a fixpoint is reached
   (Theorem 1 guarantees termination because each level strictly decreases
   the query degree, and nested aggregates are cut off by rule 4);
4. statements inside each trigger are ordered so that ``+=`` statements read
   pre-update view versions and ``:=`` (re-evaluation) statements read
   post-update versions.

Depth-limited compilation reproduces the paper's baselines: ``depth=0`` is
full re-evaluation on every update (REP) and ``depth=1`` is classical
first-order IVM with deltas evaluated against the base tables.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.agca.ast import AggSum, Expr, free_variables, relations_of
from repro.agca.schema import degree, input_variables, output_variables
from repro.compiler.materialization import CompilerOptions, MaterializationContext, options_for
from repro.compiler.program import (
    ASSIGN,
    INCREMENT,
    MapDeclaration,
    Statement,
    Trigger,
    TriggerProgram,
    order_statements,
)
from repro.delta.events import DELETE, INSERT, TriggerEvent, fresh_trigger_vars
from repro.delta.rules import delta, nested_domains
from repro.errors import CompilationError
from repro.optimizer.pushdown import push_aggregates
from repro.optimizer.range_restriction import apply_key_mapping, extract_range_restrictions
from repro.optimizer.simplify import simplify


def compile_query(
    queries: Expr | Mapping[str, Expr],
    schemas: Mapping[str, Sequence[str]],
    stream_relations: Iterable[str] | None = None,
    static_relations: Iterable[str] = (),
    options: CompilerOptions | str | None = None,
    name: str = "Q",
) -> TriggerProgram:
    """Compile ``queries`` into a trigger program.

    Parameters
    ----------
    queries:
        A single AGCA expression or a mapping of result names to expressions
        (a SQL query with several aggregates compiles to several roots).
    schemas:
        Relation name -> ordered column names, for every relation used.
    stream_relations:
        Relations receiving updates (defaults to every non-static relation).
    static_relations:
        Relations loaded once before stream processing (e.g. Nation/Region).
    options:
        A :class:`CompilerOptions` instance or a preset name
        (``"dbtoaster"``, ``"naive"``, ``"ivm"``, ``"rep"``).
    name:
        Root map name used when ``queries`` is a single expression.
    """
    if isinstance(options, str):
        options = options_for(options)
    options = options or CompilerOptions()

    if not isinstance(queries, Mapping):
        queries = {name: queries}
    normalized_schemas = {rel: tuple(cols) for rel, cols in schemas.items()}
    static = tuple(static_relations)
    if stream_relations is None:
        streams = tuple(r for r in normalized_schemas if r not in static)
    else:
        streams = tuple(stream_relations)

    for query_name, expr in queries.items():
        for rel in relations_of(expr):
            if rel not in normalized_schemas:
                raise CompilationError(
                    f"query {query_name!r} references relation {rel!r} with no schema"
                )

    ctx = MaterializationContext(normalized_schemas, streams, static, options)

    roots: dict[str, str] = {}
    for query_name, expr in queries.items():
        prepared = simplify(expr) if options.simplify else expr
        keys = tuple(sorted(output_variables(prepared)))
        if input_variables(prepared):
            raise CompilationError(
                f"query {query_name!r} has unbound input variables "
                f"{sorted(input_variables(prepared))}"
            )
        ctx.register_root(query_name, keys, prepared)
        roots[query_name] = query_name

    triggers: dict[str, Trigger] = {}
    for relation in streams:
        for sign in (INSERT, DELETE):
            trigger = Trigger(relation, sign)
            triggers[trigger.name] = trigger

    processed: set[str] = set()
    while ctx.pending:
        map_name = ctx.pending.pop(0)
        if map_name in processed:
            continue
        processed.add(map_name)
        decl = ctx.maps[map_name]
        if decl.degree == 0:
            continue
        referenced = relations_of(decl.definition)
        for relation in streams:
            if relation not in referenced:
                continue
            for sign in (INSERT, DELETE):
                event = _trigger_event(decl, relation, sign, normalized_schemas)
                statement = _build_statement(decl, event, ctx, options)
                if statement is not None:
                    triggers[f"{event.kind}_{relation.lower()}"].statements.append(statement)

    for trigger in triggers.values():
        trigger.statements = order_statements(trigger.statements)

    return TriggerProgram(
        roots=roots,
        maps=ctx.maps,
        triggers=triggers,
        schemas=normalized_schemas,
        stream_relations=streams,
        static_relations=static,
    )


# ---------------------------------------------------------------------------
# statement construction
# ---------------------------------------------------------------------------


def _trigger_event(
    decl: MapDeclaration, relation: str, sign: int, schemas: Mapping[str, tuple[str, ...]]
) -> TriggerEvent:
    columns = schemas[relation]
    avoid = set(free_variables(decl.definition)) | set(decl.keys)
    trigger_vars = fresh_trigger_vars(relation, columns, avoid)
    return TriggerEvent(relation, sign, columns, trigger_vars)


def _strip_aggsum(expr: Expr) -> Expr:
    while isinstance(expr, AggSum):
        expr = expr.term
    return expr


def _is_zero(expr: Expr) -> bool:
    from repro.agca.ast import Value, VConst

    return isinstance(expr, Value) and isinstance(expr.vexpr, VConst) and expr.vexpr.value == 0


def _build_statement(
    decl: MapDeclaration,
    event: TriggerEvent,
    ctx: MaterializationContext,
    options: CompilerOptions,
) -> Statement | None:
    # ``depth`` limits how many delta orders get materialized views: level-0 is
    # the query itself, so with depth=1 (classical IVM) the root's first-order
    # delta is evaluated directly over the base tables, and with depth=0 (REP)
    # even that is skipped in favour of full re-evaluation.
    if options.depth is not None:
        depth_limited = decl.level >= max(options.depth - 1, 0)
    else:
        depth_limited = False

    if depth_limited and options.depth == 0:
        # Full re-evaluation (REP): recompute the view from the base tables.
        expr = decl.definition
        if options.decomposition:
            expr = push_aggregates(expr, decl.keys)
        return Statement(
            target=decl.name,
            target_keys=decl.keys,
            operation=ASSIGN,
            expr=expr,
            event=event,
            target_degree=decl.degree,
        )

    raw_delta = delta(decl.definition, event)
    if options.simplify:
        simplified = simplify(raw_delta, bound=event.trigger_vars, needed=decl.keys)
    else:
        simplified = raw_delta
    if _is_zero(simplified):
        return None
    body = _strip_aggsum(simplified)

    if depth_limited:
        # Classical (depth-limited) IVM: evaluate the delta over base tables.
        keys, expr = _finalize(body, decl.keys, event, options)
        return Statement(
            target=decl.name,
            target_keys=keys,
            operation=INCREMENT,
            expr=expr,
            event=event,
            target_degree=decl.degree,
        )

    use_reeval = _choose_reevaluation(decl.definition, event, options)
    if use_reeval:
        materialized = ctx.materialize(
            _strip_aggsum(decl.definition),
            bound=(),
            needed=decl.keys,
            level=decl.level + 1,
            avoid=decl.name,
        )
        if options.decomposition:
            materialized = push_aggregates(materialized, decl.keys)
        return Statement(
            target=decl.name,
            target_keys=decl.keys,
            operation=ASSIGN,
            expr=materialized,
            event=event,
            target_degree=decl.degree,
        )

    materialized = ctx.materialize(
        body,
        bound=event.trigger_vars,
        needed=decl.keys,
        level=decl.level + 1,
        avoid=decl.name,
    )
    keys, expr = _finalize(materialized, decl.keys, event, options)
    return Statement(
        target=decl.name,
        target_keys=keys,
        operation=INCREMENT,
        expr=expr,
        event=event,
        target_degree=decl.degree,
    )


def _finalize(
    expr: Expr,
    keys: tuple[str, ...],
    event: TriggerEvent,
    options: CompilerOptions,
) -> tuple[tuple[str, ...], Expr]:
    """Finish a statement body: push aggregates down, extract range restrictions."""
    if options.decomposition:
        expr = push_aggregates(expr, set(keys) | set(event.trigger_vars))
    if not options.extract_ranges:
        return keys, expr
    mapping, residual = extract_range_restrictions(expr, keys, event.trigger_vars)
    if not mapping:
        return keys, expr
    return apply_key_mapping(keys, mapping), residual


# ---------------------------------------------------------------------------
# nested-aggregate strategy (incremental vs re-evaluation)
# ---------------------------------------------------------------------------


def _choose_reevaluation(
    definition: Expr, event: TriggerEvent, options: CompilerOptions
) -> bool:
    """Decide whether this event's statement should re-evaluate the view.

    Re-evaluation is only ever considered when the event's relation occurs
    inside a nested aggregate (lift/exists body): there the delta references
    the original nested query twice and is not structurally simpler.  The
    paper's rule: incremental maintenance pays off when the nested query is
    correlated on an *equality* that the delta binds — exactly when the delta
    rule extracts a non-empty domain for it
    (:func:`repro.delta.rules.delta_domain`), so the delta touches the outer
    tuples that equality selects; a nested aggregate with an empty domain
    changes for every outer tuple and the view is re-evaluated instead.
    """
    domains = nested_domains(definition, event)
    if not domains:
        return False
    if options.nested_strategy == "incremental":
        return False
    if options.nested_strategy == "reeval":
        return True
    return not all(domains)
