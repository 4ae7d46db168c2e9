"""Plan trigger statements into kernel IR (stage 1 of the codegen pipeline).

One ``+=`` or ``:=`` statement becomes one IR tree (:mod:`repro.codegen.ir`)
over the event's field values (positionally, no bindings dictionary).  This
module *plans* — it decides access paths, hoisting slots and accumulation
discipline — and produces IR nodes; it never generates Python source.
:mod:`repro.codegen.trigger` plans the statements of one trigger together
and concatenates their IRs into its single kernel function,
:mod:`repro.codegen.emit` renders it, and :mod:`repro.codegen.vector` walks
the same trigger plan into one columnar batch kernel.  The plan is
specialized on everything the compiler knows statically:

* **trigger variables** load positionally from the event tuple — only the
  ones the statement uses;
* **bound-key map/relation accesses** become direct probes of the backing
  :class:`~repro.runtime.maps.IndexedTable` primary dictionary with a plain
  key tuple in the table's column order;
* **partially-bound accesses** probe the table's secondary hash index for the
  bound column subset (the bare value for one column, else the tuple of the
  bound values in column order) and loop over the bucket; unbound variables
  read their values out of the key tuple by column position;
* **scalar conditions and value factors** are lowered to plain Python and
  *hoisted* to the outermost point where their variables are bound, so a
  trigger-variable condition guards the whole statement instead of being
  re-checked per scanned row (hoisting is the one visible deviation from the
  interpreter: a hoisted condition is evaluated even when the scan it guards
  turns out empty, so an ill-typed comparison can raise where the
  interpreter's per-row evaluation would never have reached it — harmless
  for well-typed programs, which the SQL frontend guarantees);
* the **accumulated delta** multiplies factors in the statement's term order
  and applies the interpreter's exact zero-dropping and number-normalization
  rules, so compiled results are bit-identical to interpreted ones — values
  *and* types.

Beyond the straight-line ``+=`` fragment, the planner also lowers the
statement classes that used to be interpreter-only:

* **nested scalar aggregates** — ``AggSum([], ...)`` bodies appearing as lift
  bodies or product factors plan as (a) a primary-dict probe for nullary
  map totals, (b) an **ordered range probe**
  (:meth:`~repro.runtime.maps.IndexedTable.range_sum`) when the body is a map
  atom guarded by a single ordering comparison on one key column — the
  ``SUM(volume) WHERE price > p`` shape of the financial queries — or (c) an
  inline scan loop reproducing the evaluator's aggregation chain exactly;
* **lifted sums** — a lift over a sum of scalar terms, the ``Q + ΔQ`` that
  the delta of a nested aggregate lifts (``Sum[](M[k]) + {k = t} * q``),
  plans each addend as the aggregate it would be alone and chains the
  results the way GMR ``+`` does (add, drop on zero, normalize);
* **grouped aggregate factors** — ``AggSum([g], ...)`` inside a product
  plans as a dict-accumulation loop followed by iteration, replicating
  GMR construction order;
* **``Exists``** factors plan as the plain-sum total-multiplicity loop
  (or a range probe) with the 0/1 gate;
* **``:=`` statements** plan as a kernel that evaluates the right-hand
  side into a plain dict (GMR ``+``-merge across sum terms, then the
  executor's plain grouping by target keys, both in enumeration order) and
  hands it to ``IndexedTable.replace`` — exactly ``execute_assign``.

Exact-equivalence notes (each mirrors a specific interpreter behaviour):

* a ``Value`` factor contributes ``normalize_number(v)`` and kills the row
  when ``is_zero(v)`` (the evaluator stores scalars into a GMR, which
  normalizes and drops zeros);
* a ``Lift`` over a value binds ``normalize_number(v)`` — coerced to the
  integer ``0`` when zero-ish — because the evaluator reads the lifted value
  back out of a GMR (``scalar_value() if inner else 0``);
* the final per-row delta is zero-checked before it reaches the target (the
  evaluator's result GMR drops zero rows);
* a top-level ``AggSum`` groups deltas in enumeration order with the GMR's
  add/normalize/drop-on-zero rule before anything touches the target map,
  and a top-level ``Sum`` merges its terms' result rows the same way —
  reproducing the interpreter's floating-point addition order exactly;
* rows are enumerated in the same order as the evaluator (scan order of the
  primary dictionary / index buckets, product terms left to right), so
  same-key map additions happen in the same order.

The **capability check** is the planning attempt itself: any construct
outside the fragment — sums nested under products, lifts over grouped
aggregates, grouped aggregates below the top level, unbound value variables —
raises :class:`~repro.codegen.lowering.Unsupported`, and the fuser leaves the
statement's whole trigger on the interpreter.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

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
    VConst,
    VVar,
    free_variables,
    value_variables,
)
from repro.codegen import ir
from repro.codegen.lowering import (
    SourceEnv,
    Unsupported,
    const_source,
    lower_condition,
    lower_value,
)
from repro.core.values import RANGE_OPS, flip_comparison
from repro.compiler.program import ASSIGN, INCREMENT, Statement, TriggerProgram
from repro.core.values import div, is_zero, normalize_number

_BASE_ENV = {
    "_is_zero": is_zero,
    "_norm": normalize_number,
    "_div": div,
    "_ONE_PASS": (0,),
}


def _key_source(entries: Iterable[tuple[str, str]]) -> str:
    """Key-tuple source from ``(column, value source)`` pairs in column order."""
    values = [source for _, source in entries]
    return f"({', '.join(values)},)" if values else "()"


class KernelContext:
    """Shared allocator and namespace for one generated kernel.

    A statement planned on its own owns a fresh context; a fused trigger
    kernel (:mod:`repro.codegen.trigger`) threads *one* context through every
    statement it concatenates, which is what makes event unpacks, table
    handles and bound-method hoists shared across statements, and local
    names collision-free.  ``dedup`` (optional, set by the fuser) is the
    :class:`~repro.codegen.trigger.FusionCache` the planner consults for
    cross-statement sharing of top-level probes, conditions, value factors
    and row builds whose inputs are trigger variables only.
    """

    __slots__ = (
        "env", "tables", "event_loads", "method_binds", "trigger_vars",
        "trigger_local_names", "dedup",
        "_table_handles", "_method_locals", "_trigger_locals", "_counter",
    )

    def __init__(self, trigger_vars: Sequence[str], dedup: Any = None) -> None:
        self.env = SourceEnv(_BASE_ENV)
        self.tables: list[tuple[str, str, str]] = []
        self.event_loads: list[ir.Node] = []
        self.method_binds: list[ir.Node] = []
        self.trigger_vars = tuple(trigger_vars)
        self.trigger_local_names: set[str] = set()
        self.dedup = dedup
        self._table_handles: dict[tuple[str, str], str] = {}
        self._method_locals: dict[tuple[str, str], str] = {}
        self._trigger_locals: dict[int, str] = {}
        self._counter = 0

    def fresh(self, prefix: str) -> str:
        name = f"_{prefix}{self._counter}"
        self._counter += 1
        return name

    def trigger_local(self, index: int) -> str:
        """The local holding one event position, adding its load on first use.

        Keyed by *position*, not name: sibling statements of one trigger may
        carry different trigger-variable names for the same event field
        (``fresh_trigger_vars`` suffixes names that collide with a map
        definition), and position is what identifies the value — which also
        keeps cross-statement dedup working across such renames.
        """
        local = self._trigger_locals.get(index)
        if local is None:
            local = f"_v{index}"
            self._trigger_locals[index] = local
            self.trigger_local_names.add(local)
            self.event_loads.append(ir.EventLoad(local, index))
        return local

    def table_handle(self, kind: str, name: str) -> str:
        """The namespace global bound to one map/relation table at link time."""
        handle = self._table_handles.get((kind, name))
        if handle is None:
            handle = self.fresh("t")
            self._table_handles[(kind, name)] = handle
            self.tables.append((handle, kind, name))
        return handle

    def method_local(self, handle: str, attr: str, prefix: str) -> str:
        """A preamble binding of one table method (``add``, ``range_sum``)."""
        local = self._method_locals.get((handle, attr))
        if local is None:
            local = self.fresh(prefix)
            self._method_locals[(handle, attr)] = local
            self.method_binds.append(ir.BindMethod(local, handle, attr))
        return local

    def preamble(self) -> list[ir.Node]:
        """Event loads then method binds — the head of every kernel body."""
        return [*self.event_loads, *self.method_binds]


# ---------------------------------------------------------------------------
# Term planning
# ---------------------------------------------------------------------------


class _AtomStep:
    """A relation/map access: probe when fully bound, scan loop otherwise."""

    __slots__ = (
        "kind", "name", "stored", "bound", "unbound",
        "eq_checks", "mult_local", "row_local", "index", "reused", "dedup_key",
    )

    def __init__(self) -> None:
        self.bound: list[tuple[str, str]] = []          # (stored column, local)
        self.unbound: list[tuple[str, int, str]] = []   # (var, key position, local)
        self.eq_checks: list[tuple[int, str]] = []      # (key position, local)
        self.index: int = 0                             # 1-based atom index
        self.reused = False               # fused: probe shared with an earlier def
        self.dedup_key: tuple | None = None  # fused: reserved cache key


class _ScalarStep:
    """A Value / Cmp / Lift / nested-aggregate step with its hoisting slot."""

    __slots__ = (
        "kind", "source", "local", "slot", "check_var", "spec",
        "reused", "dedup_key",
    )

    def __init__(self, kind: str, slot: int) -> None:
        self.kind = kind
        self.slot = slot
        self.source = ""
        self.local = ""
        self.check_var = ""
        self.spec: "_AggSpec | None" = None
        self.reused = False               # fused: the local is a shared def
        self.dedup_key: tuple | None = None  # fused: reserved cache key


class _AggSpec:
    """One nested scalar aggregate: how to compute it and where it lands.

    ``mode`` selects the lowering: ``"total"`` (nullary map: one primary-dict
    probe), ``"probe"`` (ordered range probe via ``IndexedTable.range_sum``,
    optionally after prelude lift bindings feeding the cutoff), ``"loop"``
    (inline scan replicating the evaluator's aggregation chain over a
    sub-plan) or ``"sum"`` (a lifted sum of scalar terms: ``parts`` chained
    in order).  ``chain`` distinguishes the ``AggSum`` chain semantics from
    the plain summation of ``Exists``.
    """

    __slots__ = (
        "mode", "chain", "result", "handle", "probe", "column", "op",
        "cutoff", "prelude", "plan", "parts",
    )

    def __init__(self, result: str, chain: bool) -> None:
        self.mode = ""
        self.chain = chain
        self.result = result
        self.handle = ""
        self.probe = ""
        self.column = ""
        self.op = ""
        self.cutoff = ""
        self.prelude: list[tuple] = []
        self.plan: "_TermPlan | None" = None
        self.parts: "list[_AggSpec]" = []


class _GroupAggStep:
    """A grouped ``AggSum`` factor: accumulate a dict, then loop over it.

    Sits in the term plan's atom sequence (it opens a loop and binds the
    inner-produced group variables, exactly like a scan does).  ``unbound``
    mirrors the atom tuple shape so the hoisting logic treats the bound
    group variables uniformly.
    """

    __slots__ = ("plan", "group", "dict_local", "mult_local", "unbound", "key_sources")

    def __init__(self) -> None:
        self.plan: "_TermPlan | None" = None
        self.group: tuple[str, ...] = ()
        self.dict_local = ""
        self.mult_local = ""
        self.unbound: list[tuple[str, int, str]] = []  # (var, key tuple pos, local)
        self.key_sources: list[str] = []               # per group var, inner source


class _TermPlan:
    """Plan of one product term: ordered steps, factors, produced columns."""

    __slots__ = ("steps", "atoms", "factors", "colset", "names", "dead")

    def __init__(self) -> None:
        self.steps: list[Any] = []
        self.atoms: list[Any] = []
        self.factors: list[str] = []
        self.colset: set[str] = set()
        self.names: dict[str, str] = {}
        self.dead = False


class _StatementCompiler:
    """Plans one statement into IR nodes (stage 1: plan; stage 3 emits).

    ``context`` is owned when planning standalone (``describe``, the vector
    emitter) and shared when the fuser compiles a whole trigger.
    """

    def __init__(
        self,
        statement: Statement,
        program: TriggerProgram,
        context: KernelContext | None = None,
    ) -> None:
        self.statement = statement
        self.program = program
        self.ctx = context if context is not None else KernelContext(
            statement.event.trigger_vars
        )
        self._maintained = program.requires_base_relations()

    # -- small allocators ---------------------------------------------------
    def _fresh(self, prefix: str) -> str:
        return self.ctx.fresh(prefix)

    def _trigger_local(self, var: str) -> str:
        # Resolve the name against this statement's own event; the context
        # local is positional, shared across differently-named siblings.
        return self.ctx.trigger_local(self.statement.event.trigger_vars.index(var))

    def _table_handle(self, kind: str, name: str) -> str:
        return self.ctx.table_handle(kind, name)

    def _probe_local(self, kind: str, name: str) -> str:
        """A kernel-preamble binding of the table's ``range_sum`` method."""
        handle = self._table_handle(kind, name)
        return self.ctx.method_local(handle, "range_sum", "rs")

    def _root_resolve(self, var: str) -> str | None:
        """Outermost scope: only the trigger variables are bound."""
        if var in self.statement.event.trigger_vars:
            return self._trigger_local(var)
        return None

    def _dedup_eligible(self, depth: int, slot: int, dep_locals) -> bool:
        """True when a planned step may share across fused statements.

        Sharing moves the computation into the fused kernel's prefix, which
        runs before every statement — so only statement-top-level steps
        (depth 0, hoisting slot 0) whose inputs are trigger locals qualify.
        """
        return (
            self.ctx.dedup is not None
            and depth == 0
            and slot == 0
            and frozenset(dep_locals) <= self.ctx.trigger_local_names
        )

    def _attach(self, key: tuple | None, node: ir.Node, nodes: list[ir.Node]) -> None:
        """Bind a reserved dedup definition to the node just appended."""
        if key is not None:
            self.ctx.dedup.attach(key, node, nodes, len(nodes) - 1)

    # -- planning -----------------------------------------------------------
    def compile(self) -> list[ir.Node]:
        """Plan the statement; returns its kernel body as IR nodes."""
        statement = self.statement
        target_decl = self.program.maps.get(statement.target)
        if target_decl is None or len(target_decl.keys) != len(statement.target_keys):
            raise Unsupported("target map is not declared with matching arity")
        if statement.operation == ASSIGN:
            return self._compile_assign()
        if statement.operation != INCREMENT:
            raise Unsupported(f"unknown statement operation {statement.operation!r}")
        return self._compile_increment()

    def _split_terms(self) -> tuple[tuple[str, ...] | None, tuple[Expr, ...]]:
        expr: Expr = self.statement.expr
        group: tuple[str, ...] | None = None
        if isinstance(expr, AggSum):
            group = expr.group
            expr = expr.term
            if isinstance(expr, (AggSum, Sum)):
                raise Unsupported("nested aggregation under a top-level AggSum")
        terms = expr.terms if isinstance(expr, Sum) else (expr,)
        if not terms:
            raise Unsupported("empty sum")
        return group, terms

    def _compile_increment(self) -> list[ir.Node]:
        statement = self.statement
        group, terms = self._split_terms()

        plans = [self._plan_term(term) for term in terms]
        live = [plan for plan in plans if not plan.dead]

        reads_target = statement.target in statement.reads_maps()
        if group is not None:
            mode = "group"
        elif len(terms) > 1:
            mode = "merge"
        elif reads_target:
            mode = "pending"
        else:
            mode = "direct"

        # Resolve target-key sources up front so unsupported statements fall
        # back before any IR is built.
        self._check_key_sources(live, group, mode)

        body: list[ir.Node] = []
        merge_local = group_local = pending_local = ""
        if mode == "merge":
            merge_local = self._fresh("mrg")
            body.append(ir.Let(merge_local, "{}"))
        elif mode == "group":
            group_local = self._fresh("grp")
            body.append(ir.Let(group_local, "{}"))
        elif mode == "pending":
            pending_local = self._fresh("pend")
            body.append(ir.Let(pending_local, "[]"))
        target_handle = self._table_handle("map", statement.target)
        add_local = self.ctx.method_local(target_handle, "add", "add")

        colset_ids: dict[frozenset[str], int] = {}
        for plan in live:
            colset_ids.setdefault(frozenset(plan.colset), len(colset_ids))

        def sink(nodes: list[ir.Node], plan: _TermPlan) -> None:
            self._emit_sink(
                nodes, plan, mode, group, colset_ids,
                add_local, merge_local, group_local, pending_local,
            )

        wrap = len(live) > 1
        for plan in plans:
            if plan.dead:
                continue
            if wrap:
                scope_body: list[ir.Node] = []
                body.append(ir.OnePass(self._fresh("w"), scope_body))
                self._emit_term(scope_body, plan, sink)
            else:
                self._emit_term(body, plan, sink)

        def add_sink(key: str, mult: str) -> ir.Node:
            return ir.AddDelta(add_local, key, mult)

        if mode == "merge":
            self._emit_merge_epilogue(body, live, colset_ids, merge_local, add_sink)
        elif mode == "group":
            self._emit_group_epilogue(body, live[0] if live else None, group,
                                      group_local, add_sink)
        elif mode == "pending":
            kr, m = self._fresh("kr"), self._fresh("m")
            body.append(ir.PairLoop(kr, m, pending_local, [
                ir.AddDelta(add_local, kr, m)
            ]))
        return body

    def _compile_assign(self) -> list[ir.Node]:
        """Plan a ``:=`` statement: evaluate, group plainly, ``replace``.

        The kernel mirrors ``TriggerExecutor.execute_assign`` step for step:
        the right-hand side is evaluated into result rows (a chain-merged
        dict across sum terms, exactly GMR ``+``), those rows are grouped by
        the target keys with *plain* addition in enumeration order, and the
        grouped entries replace the target table's contents.  Aborts inside a
        term only skip that term — an empty result still replaces (clears)
        the map, as the interpreter does.
        """
        statement = self.statement
        group, terms = self._split_terms()

        plans = [self._plan_term(term) for term in terms]
        live = [plan for plan in plans if not plan.dead]

        if group is not None:
            mode = "group"
        elif len(terms) > 1:
            mode = "merge"
        else:
            mode = "single"
        self._check_key_sources(live, group, "group" if group is not None else mode)

        body: list[ir.Node] = []
        target_handle = self._table_handle("map", statement.target)
        assign_local = self._fresh("asn")
        body.append(ir.Let(assign_local, "{}"))
        merge_local = group_local = ""
        if mode == "merge":
            merge_local = self._fresh("mrg")
            body.append(ir.Let(merge_local, "{}"))
        elif mode == "group":
            group_local = self._fresh("grp")
            body.append(ir.Let(group_local, "{}"))

        colset_ids: dict[frozenset[str], int] = {}
        for plan in live:
            colset_ids.setdefault(frozenset(plan.colset), len(colset_ids))

        def single_sink(nodes: list[ir.Node], plan: _TermPlan) -> None:
            acc = self._emit_acc(nodes, plan)
            key = self._target_key_source(lambda k: self._value_for(k, plan))
            nodes.append(ir.PlainMerge(assign_local, self._fresh("kr"), key, acc))

        def merge_sink(nodes: list[ir.Node], plan: _TermPlan) -> None:
            acc = self._emit_acc(nodes, plan)
            nodes.append(ir.DictMerge(
                merge_local, self._fresh("k"),
                self._merge_key_tuple(plan, colset_ids), acc,
            ))

        def group_sink(nodes: list[ir.Node], plan: _TermPlan) -> None:
            acc = self._emit_acc(nodes, plan)
            nodes.append(ir.DictMerge(
                group_local, self._fresh("k"), self._group_key_tuple(plan, group), acc,
            ))

        sink = {"single": single_sink, "merge": merge_sink, "group": group_sink}[mode]
        for plan in plans:
            if plan.dead:
                continue
            # Always scope term aborts: a dead term must still reach replace.
            scope_body: list[ir.Node] = []
            body.append(ir.OnePass(self._fresh("w"), scope_body))
            self._emit_term(scope_body, plan, sink)

        def plain_sink(key: str, mult: str) -> ir.Node:
            return ir.PlainMerge(assign_local, self._fresh("kr"), key, mult)

        if mode == "merge":
            self._emit_merge_epilogue(body, live, colset_ids, merge_local, plain_sink)
        elif mode == "group":
            self._emit_group_epilogue(body, live[0] if live else None, group,
                                      group_local, plain_sink)
        body.append(ir.Replace(target_handle, f"{assign_local}.items()"))
        return body

    def _check_key_sources(self, plans, group, mode) -> None:
        trigger_vars = set(self.statement.event.trigger_vars)
        for key in self.statement.target_keys:
            if key in trigger_vars:
                continue
            if mode == "group":
                if group is not None and key in group:
                    continue
                raise Unsupported(f"target key {key!r} outside group and trigger vars")
            for plan in plans:
                if key not in plan.colset:
                    raise Unsupported(f"target key {key!r} not produced by every term")
        if group is not None and plans:
            plan = plans[0]
            for g in group:
                if g not in plan.colset and g not in trigger_vars:
                    raise Unsupported(f"group variable {g!r} is neither produced nor bound")

    def _plan_term(self, term: Expr, resolve=None, depth: int = 0) -> _TermPlan:
        """Plan one product term.

        ``resolve`` maps variables of the *enclosing* scope to their locals
        (``None`` outside: only trigger variables); a nested aggregate's term
        is planned with a resolver chaining through the enclosing term's
        bindings, which is exactly the evaluator's sideways information
        passing.  ``depth`` bounds recursion: grouped aggregate factors only
        compile at the statement's top level.
        """
        plan = _TermPlan()
        bound: dict[str, str] = {}
        # Dedup keys this term reserved: evicted if the term goes dead (a
        # dead term emits no IR, so its reservations must not be reusable).
        reserved: list[tuple] = []
        if resolve is None:
            resolve = self._root_resolve

        def lookup(var: str) -> str | None:
            local = bound.get(var)
            if local is not None:
                return local
            return resolve(var)

        def names_for(vars_needed) -> dict[str, str]:
            out = {}
            for var in vars_needed:
                local = lookup(var)
                if local is None:
                    raise Unsupported(f"variable {var!r} is not bound at this point")
                out[var] = local
            return out

        def child_resolve_for(deps: set[str]):
            """Resolver handed to a nested aggregate, recording what it uses."""

            def child_resolve(var: str) -> str | None:
                local = lookup(var)
                if local is not None:
                    deps.add(var)
                return local

            return child_resolve

        factors = term.terms if isinstance(term, Product) else (term,)
        for node in factors:
            if isinstance(node, Product):
                raise Unsupported("nested product")
            if isinstance(node, Value):
                if isinstance(node.vexpr, VConst):
                    const = normalize_number(node.vexpr.value)
                    if is_zero(const):
                        if reserved and self.ctx.dedup is not None:
                            self.ctx.dedup.discard(reserved)
                        plan.dead = True
                        return plan
                    if const == 1 and not isinstance(const, float):
                        continue
                    plan.factors.append(const_source(const, self.ctx.env))
                    continue
                deps = value_variables(node.vexpr)
                step = _ScalarStep("value", self._slot_for(deps, bound, plan))
                names = names_for(deps)
                step.source = lower_value(node.vexpr, names, self.ctx.env)
                if self._dedup_eligible(depth, step.slot, names.values()):
                    key = ("norm", step.source)
                    shared = self.ctx.dedup.reuse(key)
                    if shared is not None:
                        step.local = shared
                        step.reused = True
                    else:
                        step.local = self._fresh("s")
                        step.dedup_key = self.ctx.dedup.reserve(key, step.local)
                        if step.dedup_key is not None:
                            reserved.append(step.dedup_key)
                else:
                    step.local = self._fresh("s")
                plan.steps.append(step)
                plan.factors.append(step.local)
            elif isinstance(node, Cmp):
                deps = value_variables(node.left) | value_variables(node.right)
                step = _ScalarStep("cmp", self._slot_for(deps, bound, plan))
                names = names_for(deps)
                step.source = lower_condition(
                    node.left, node.op, node.right, names, self.ctx.env
                )
                if self._dedup_eligible(depth, step.slot, names.values()):
                    key = ("cond", step.source)
                    shared = self.ctx.dedup.reuse_condition(key, self.ctx.fresh)
                    if shared is not None:
                        step.source = shared  # guard the shared prefix local
                    else:
                        step.dedup_key = self.ctx.dedup.reserve_condition(key)
                        reserved.append(step.dedup_key)
                plan.steps.append(step)
            elif isinstance(node, Lift):
                already = lookup(node.var) is not None
                if isinstance(node.term, Value):
                    deps = value_variables(node.term.vexpr)
                    # An equality lift also depends on the variable it checks.
                    slot_deps = deps | ({node.var} if already else set())
                    slot = self._slot_for(slot_deps, bound, plan)
                    step = _ScalarStep("lift_eq" if already else "lift_bind", slot)
                    names = names_for(deps)
                    step.source = lower_value(node.term.vexpr, names, self.ctx.env)
                    if already:
                        step.check_var = lookup(node.var)
                    else:
                        if self._dedup_eligible(depth, slot, names.values()):
                            key = ("lift", step.source)
                            shared = self.ctx.dedup.reuse(key)
                            if shared is not None:
                                step.local = shared
                                step.reused = True
                            else:
                                step.local = self._fresh("b")
                                step.dedup_key = self.ctx.dedup.reserve(key, step.local)
                                if step.dedup_key is not None:
                                    reserved.append(step.dedup_key)
                        else:
                            step.local = self._fresh("b")
                        bound[node.var] = step.local
                        plan.colset.add(node.var)
                    plan.steps.append(step)
                elif isinstance(node.term, (AggSum, Sum)):
                    deps: set[str] = set()
                    spec = self._plan_lift_body(node.term, child_resolve_for(deps), depth)
                    slot_deps = deps | ({node.var} if already else set())
                    slot = self._slot_for(slot_deps, bound, plan)
                    step = _ScalarStep("lift_agg_eq" if already else "lift_agg", slot)
                    step.spec = spec
                    step.local = spec.result
                    if already:
                        step.check_var = lookup(node.var)
                    else:
                        bound[node.var] = spec.result
                        plan.colset.add(node.var)
                    plan.steps.append(step)
                else:
                    raise Unsupported(
                        f"lift over a {type(node.term).__name__} body"
                    )
            elif isinstance(node, AggSum):
                if node.group:
                    if depth > 0:
                        raise Unsupported("grouped aggregate below the top level")
                    step = self._plan_group_agg(node, bound, plan, child_resolve_for)
                    plan.steps.append(step)
                    plan.atoms.append(step)
                    plan.factors.append(step.mult_local)
                else:
                    deps = set()
                    spec = self._plan_scalar_agg(
                        node.term, child_resolve_for(deps), True, depth
                    )
                    step = _ScalarStep("agg_factor", self._slot_for(deps, bound, plan))
                    step.spec = spec
                    step.local = spec.result
                    plan.steps.append(step)
                    plan.factors.append(spec.result)
            elif isinstance(node, Exists):
                deps = set()
                spec = self._plan_scalar_agg(
                    node.term, child_resolve_for(deps), False, depth
                )
                step = _ScalarStep("exists", self._slot_for(deps, bound, plan))
                step.spec = spec
                plan.steps.append(step)
            elif isinstance(node, (MapRef, Relation)):
                # A probe may share across fused statements only when it is
                # emitted before any loop opens: every preceding atom must be
                # a loop-free probe itself.
                dedup_ok = depth == 0 and all(
                    isinstance(a, _AtomStep) and not a.unbound and not a.eq_checks
                    for a in plan.atoms
                )
                atom = self._plan_atom(node, bound, plan, resolve, dedup_ok, reserved)
                plan.steps.append(atom)
                plan.atoms.append(atom)
                plan.factors.append(atom.mult_local)
            else:
                raise Unsupported(f"unsupported construct {type(node).__name__}")
        plan.names = dict(bound)
        return plan

    def _slot_for(self, deps, bound, plan) -> int:
        slot = 0
        for var in deps:
            local = bound.get(var)
            if local is None:
                continue  # trigger or enclosing-scope variable: slot 0
            for index, atom in enumerate(plan.atoms, start=1):
                if any(v == var for v, _, _ in atom.unbound):
                    slot = max(slot, index)
        # Lift-bound variables: find the step that defined them.
        for step in plan.steps:
            if isinstance(step, _ScalarStep) and step.kind in ("lift_bind", "lift_agg"):
                var = next((v for v, l in bound.items() if l == step.local), None)
                if var in deps:
                    slot = max(slot, step.slot)
        return slot

    def _plan_scalar_agg(self, term: Expr, resolve, chain: bool, depth: int) -> _AggSpec:
        """Plan ``AggSum([], term)`` (or an ``Exists`` body, ``chain=False``).

        Picks the cheapest faithful lowering: a nullary-map total probe, an
        ordered range probe for the guarded single-atom shape, or an inline
        scan loop over a recursively planned sub-term.
        """
        spec = _AggSpec(self._fresh("g"), chain)
        factors = term.terms if isinstance(term, Product) else (term,)
        if (
            len(factors) == 1
            and isinstance(factors[0], MapRef)
            and not factors[0].keys
            and chain
        ):
            decl = self.program.maps.get(factors[0].name)
            if decl is not None and not decl.keys:
                spec.mode = "total"
                spec.handle = self._table_handle("map", factors[0].name)
                return spec
        if self._try_plan_probe(spec, factors, resolve, depth):
            return spec
        spec.mode = "loop"
        spec.plan = self._plan_term(term, resolve=resolve, depth=depth + 1)
        return spec

    def _plan_lift_body(self, body: Expr, resolve, depth: int) -> _AggSpec:
        """Plan the scalar a lift binds: one aggregate, or a sum of scalar terms.

        The delta of a nested aggregate lifts ``Q + ΔQ``: a sum whose addends
        are each a scalar aggregate or a product of values and conditions
        (``Sum[](M2[k]) + {k = t} * q``).  Every addend takes the lowering
        it would take as an aggregate on its own, and the results chain
        exactly like the evaluator's GMR ``+`` over nullary rows: add, drop
        on zero, normalize per step.
        """
        if isinstance(body, AggSum):
            if body.group:
                raise Unsupported("lift over a grouped aggregate")
            return self._plan_scalar_agg(body.term, resolve, True, depth)
        spec = _AggSpec(self._fresh("g"), True)
        spec.mode = "sum"
        for addend in body.terms:
            if isinstance(addend, AggSum) and not addend.group:
                addend = addend.term
            elif not all(
                isinstance(f, (Value, Cmp))
                for f in (addend.terms if isinstance(addend, Product) else (addend,))
            ):
                raise Unsupported("lift over a sum with a non-scalar addend")
            spec.parts.append(self._plan_scalar_agg(addend, resolve, True, depth))
        return spec

    def _try_plan_probe(self, spec: _AggSpec, factors, resolve, depth: int) -> bool:
        """Recognize ``M[..k..] * (lifts...) * {k op c}`` and plan a range probe.

        The lifts may only bind scalar values feeding the cutoff (the PSP
        shape ``M1[v] * (s := Sum[](M3[])) * {v > 0.0001*s}``); every atom key
        must be free here and untouched by anything but the single guard.
        """
        if len(factors) < 2:
            return False
        atom = factors[0]
        guard_cmp = factors[-1]
        middle = factors[1:-1]
        if not isinstance(atom, MapRef) or not isinstance(guard_cmp, Cmp):
            return False
        keys = atom.keys
        keyset = set(keys)
        if not keys or len(keyset) != len(keys):
            return False
        decl = self.program.maps.get(atom.name)
        if decl is None or len(decl.keys) != len(keys):
            return False
        for key in keys:
            if resolve(key) is not None:
                return False  # bound key: a filtered scan, not a full range
        if not all(isinstance(f, Lift) for f in middle):
            return False

        lift_locals: dict[str, str] = {}
        prelude: list[tuple] = []

        def probe_names(vars_needed) -> dict[str, str] | None:
            out = {}
            for var in vars_needed:
                local = lift_locals.get(var)
                if local is None:
                    if var in keyset:
                        return None
                    local = resolve(var)
                if local is None:
                    return None
                out[var] = local
            return out

        for lift in middle:
            if lift.var in keyset or lift.var in lift_locals:
                return False
            if resolve(lift.var) is not None:
                return False  # equality lift: the loop lowering handles it
            body = lift.term
            if isinstance(body, Value):
                names = probe_names(value_variables(body.vexpr))
                if names is None:
                    return False
                source = lower_value(body.vexpr, names, self.ctx.env)
                local = self._fresh("b")
                lift_locals[lift.var] = local
                prelude.append(("value", local, source))
            elif isinstance(body, AggSum) and not body.group:
                if free_variables(body) & keyset:
                    return False
                sub_resolve = lambda var: (
                    lift_locals.get(var) or (None if var in keyset else resolve(var))
                )
                sub = self._plan_scalar_agg(body.term, sub_resolve, True, depth + 1)
                lift_locals[lift.var] = sub.result
                prelude.append(("agg", sub))
            else:
                return False

        op = guard_cmp.op
        if isinstance(guard_cmp.left, VVar) and guard_cmp.left.name in keyset:
            guard, cutoff = guard_cmp.left.name, guard_cmp.right
        elif isinstance(guard_cmp.right, VVar) and guard_cmp.right.name in keyset:
            guard, cutoff = guard_cmp.right.name, guard_cmp.left
            op = flip_comparison(op)
        else:
            return False
        if op not in RANGE_OPS:
            return False
        cutoff_vars = value_variables(cutoff)
        if cutoff_vars & keyset:
            return False
        names = probe_names(cutoff_vars)
        if names is None:
            return False
        spec.mode = "probe"
        spec.prelude = prelude
        spec.probe = self._probe_local("map", atom.name)
        spec.column = decl.keys[keys.index(guard)]
        spec.op = op
        spec.cutoff = lower_value(cutoff, names, self.ctx.env)
        return True

    def _plan_group_agg(self, node: AggSum, bound, plan, child_resolve_for) -> _GroupAggStep:
        """Plan a grouped ``AggSum`` factor: dict accumulation, then a loop."""
        step = _GroupAggStep()
        step.group = node.group
        step.dict_local = self._fresh("gd")
        step.mult_local = self._fresh("m")
        deps: set[str] = set()
        resolve = child_resolve_for(deps)
        step.plan = self._plan_term(node.term, resolve=resolve, depth=1)
        for position, var in enumerate(node.group):
            inner = step.plan.names.get(var)
            if inner is not None:
                # Produced inside: the group key carries it out of the loop.
                step.key_sources.append(inner)
                local = self._fresh("b")
                step.unbound.append((var, position, local))
                if var not in bound:
                    bound[var] = local
                    plan.colset.add(var)
                continue
            outer = resolve(var)
            if outer is None:
                raise Unsupported(
                    f"group variable {var!r} is neither produced nor bound"
                )
            step.key_sources.append(outer)
        return step

    def _plan_atom(
        self, node, bound: dict[str, str], plan: _TermPlan, resolve,
        dedup_ok: bool = False, reserved: list[tuple] | None = None,
    ) -> _AtomStep:
        atom = _AtomStep()
        if isinstance(node, MapRef):
            atom.kind = "map"
            atom.name = node.name
            decl = self.program.maps.get(node.name)
            if decl is None:
                raise Unsupported(f"map {node.name!r} is not declared")
            atom.stored = decl.keys
            atom_vars = node.keys
        else:
            atom.kind = "relation"
            atom.name = node.name
            if node.name not in self.program.schemas:
                raise Unsupported(f"relation {node.name!r} has no schema")
            if (
                node.name not in self.program.static_relations
                and node.name not in self._maintained
            ):
                raise Unsupported(f"relation {node.name!r} is not stored at runtime")
            atom.stored = tuple(self.program.schemas[node.name])
            atom_vars = node.columns
        if len(atom.stored) != len(atom_vars):
            raise Unsupported(f"arity mismatch on {node.name!r}")
        atom.index = len(plan.atoms) + 1
        atom.mult_local = self._fresh("m")
        atom.row_local = self._fresh("r")

        first_pos: dict[str, int] = {}
        for position, var in enumerate(atom_vars):
            stored_col = atom.stored[position]
            plan.colset.add(var)
            if var in first_pos:
                # Repeated unbound variable within this atom: the value only
                # exists once the bucket loop binds it, so the repeat is an
                # in-row equality check, never a probe column.
                local = next(l for v, _, l in atom.unbound if v == var)
                atom.eq_checks.append((position, local))
                continue
            known = bound.get(var)
            if known is None:
                known = resolve(var)
            if known is not None:
                atom.bound.append((stored_col, known))
            else:
                first_pos[var] = position
                local = self._fresh("b")
                atom.unbound.append((var, position, local))
                bound[var] = local
        if (
            self.ctx.dedup is not None
            and dedup_ok
            and not atom.unbound
            and not atom.eq_checks
            and frozenset(l for _, l in atom.bound) <= self.ctx.trigger_local_names
        ):
            handle = self._table_handle(atom.kind, atom.name)
            key = ("probe", handle, _key_source(atom.bound))
            shared = self.ctx.dedup.reuse(key, table=handle)
            if shared is not None:
                atom.mult_local = shared
                atom.reused = True
            else:
                atom.dedup_key = self.ctx.dedup.reserve(key, atom.mult_local, table=handle)
                if atom.dedup_key is not None and reserved is not None:
                    reserved.append(atom.dedup_key)
        return atom

    # -- IR building --------------------------------------------------------
    def _emit_term(self, nodes: list[ir.Node], plan: _TermPlan, sink) -> None:
        """Build one term's steps in slot order, calling ``sink(nodes, plan)``."""
        scalars_by_slot: dict[int, list[_ScalarStep]] = {}
        for step in plan.steps:
            if isinstance(step, _ScalarStep):
                scalars_by_slot.setdefault(step.slot, []).append(step)

        current = nodes
        for slot in range(len(plan.atoms) + 1):
            for step in scalars_by_slot.get(slot, ()):
                self._emit_scalar(current, step)
            if slot < len(plan.atoms):
                entry = plan.atoms[slot]
                if isinstance(entry, _GroupAggStep):
                    inner = self._emit_group_agg(current, entry)
                else:
                    inner = self._emit_atom(current, entry)
                if inner is not current:
                    current = inner
        sink(current, plan)

    def _emit_scalar(self, nodes: list[ir.Node], step: _ScalarStep) -> None:
        if step.kind == "cmp":
            node = ir.GuardCond(step.source)
            nodes.append(node)
            self._attach(step.dedup_key, node, nodes)
        elif step.kind == "value":
            if not step.reused:
                node = ir.Norm(step.local, step.source)
                nodes.append(node)
                self._attach(step.dedup_key, node, nodes)
            nodes.append(ir.GuardZero(step.local))
        elif step.kind == "lift_bind":
            # A reused lift binding emits nothing: the shared prefix already
            # bound the (normalized, zero-coerced) value to the shared local.
            if not step.reused:
                node = ir.NormOrZero(step.local, step.source)
                nodes.append(node)
                self._attach(step.dedup_key, node, nodes)
        elif step.kind == "lift_eq":
            # An already-bound lift acts as an equality condition.
            tmp = self._fresh("s")
            nodes.append(ir.NormOrZero(tmp, step.source))
            nodes.append(ir.GuardNotEq(step.check_var, tmp))
        elif step.kind == "lift_agg":
            # The aggregate chain already normalizes (and yields 0 when
            # empty), matching the evaluator's lift-over-GMR read-back.
            self._emit_agg_spec(nodes, step.spec)
        elif step.kind == "lift_agg_eq":
            self._emit_agg_spec(nodes, step.spec)
            nodes.append(ir.GuardNotEq(step.check_var, step.spec.result))
        elif step.kind == "agg_factor":
            # A zero aggregate is an empty scalar GMR: the row dies.
            self._emit_agg_spec(nodes, step.spec)
            nodes.append(ir.GuardZero(step.spec.result))
        elif step.kind == "exists":
            # Exists gates on total multiplicity: zero kills the row, any
            # other value contributes multiplicity 1 (no factor).
            self._emit_agg_spec(nodes, step.spec)
            nodes.append(ir.GuardZero(step.spec.result))
        else:  # pragma: no cover - planner and emitter enumerate the same kinds
            raise Unsupported(f"unknown scalar step kind {step.kind!r}")

    def _emit_agg_spec(self, nodes: list[ir.Node], spec: _AggSpec) -> None:
        """Build IR leaving the aggregate's value in ``spec.result``."""
        if spec.mode == "total":
            nodes.append(ir.Probe(spec.result, spec.handle, "()"))
            nodes.append(ir.DefaultZero(spec.result))
            return
        if spec.mode == "probe":
            for entry in spec.prelude:
                if entry[0] == "value":
                    _, local, source = entry
                    nodes.append(ir.NormOrZero(local, source))
                else:
                    self._emit_agg_spec(nodes, entry[1])
            nodes.append(ir.RangeProbe(
                spec.result, spec.probe, spec.column, spec.op, spec.cutoff, spec.chain
            ))
            return
        if spec.mode == "sum":
            # GMR ``+`` over nullary rows, addend by addend; an empty addend
            # reads as the int 0, which leaves the running value untouched.
            nodes.append(ir.Let(spec.result, "0"))
            for part in spec.parts:
                self._emit_agg_spec(nodes, part)
                nodes.append(ir.ChainAccum(spec.result, part.result, self._fresh("h")))
            return
        # Inline scan loop.  The one-pass wrapper scopes the sub-term's
        # aborts: a failing hoisted condition inside the aggregate must empty
        # the aggregate, not abort the enclosing row.
        plan = spec.plan
        nodes.append(ir.Let(spec.result, "0"))
        if not plan.dead:
            scope_body: list[ir.Node] = []
            nodes.append(ir.OnePass(self._fresh("w"), scope_body))
            self._emit_term(
                scope_body, plan, lambda n, p: self._emit_agg_loop_sink(n, p, spec)
            )
        if not spec.chain:
            nodes.append(ir.Norm(spec.result, spec.result))

    def _emit_agg_loop_sink(self, nodes: list[ir.Node], plan, spec: _AggSpec) -> None:
        """Per-row accumulation inside an inline aggregate scan.

        ``chain=True`` replicates the GMR aggregation chain (add, drop on
        zero, normalize per step); ``chain=False`` the plain summation of
        ``total_multiplicity`` over per-entry-normalized multiplicities.
        """
        product = self._product_expr(nodes, plan)
        if spec.chain:
            nodes.append(ir.ChainAccum(spec.result, product, self._fresh("h")))
        else:
            nodes.append(ir.PlainAccum(spec.result, product))

    def _product_expr(self, nodes: list[ir.Node], plan) -> str:
        """The factor product, zero-guarded; single factors skip the alias."""
        if not plan.factors:
            return "1"
        if len(plan.factors) == 1:
            factor = plan.factors[0]
            self._guard_nonzero(nodes, factor)
            return factor
        product = self._fresh("p")
        nodes.append(ir.Let(product, " * ".join(plan.factors)))
        nodes.append(ir.GuardZero(product))
        return product

    def _emit_group_agg(self, nodes: list[ir.Node], step: _GroupAggStep) -> list[ir.Node]:
        """Build a grouped aggregate factor; returns the iteration-loop body."""
        nodes.append(ir.Let(step.dict_local, "{}"))
        plan = step.plan
        if not plan.dead:
            scope_body: list[ir.Node] = []
            nodes.append(ir.OnePass(self._fresh("w"), scope_body))
            key = ", ".join(step.key_sources)
            key = f"({key},)" if step.key_sources else "()"

            def sink(inner: list[ir.Node], p) -> None:
                product = self._product_expr(inner, p)
                inner.append(ir.DictMerge(step.dict_local, self._fresh("k"), key, product))

            self._emit_term(scope_body, plan, sink)
        gk = self._fresh("gk")
        loop_body: list[ir.Node] = []
        nodes.append(ir.ItemsLoop(gk, step.mult_local, step.dict_local, loop_body))
        for var, position, local in step.unbound:
            loop_body.append(ir.Let(local, f"{gk}[{position}]"))
        return loop_body

    def _emit_atom(self, nodes: list[ir.Node], atom: _AtomStep) -> list[ir.Node]:
        """Build the probe or scan for one atom; returns the active body list."""
        handle = self._table_handle(atom.kind, atom.name)
        if not atom.unbound and not atom.eq_checks:
            if not atom.reused:
                probe_key = self._shared_key(
                    nodes, _key_source(atom.bound),
                    frozenset(local for _, local in atom.bound),
                )
                node = ir.Probe(atom.mult_local, handle, probe_key)
                nodes.append(node)
                self._attach(atom.dedup_key, node, nodes)
            nodes.append(ir.GuardNone(atom.mult_local))
            return nodes
        if not atom.bound:
            loop_body: list[ir.Node] = []
            nodes.append(ir.FullScan(atom.row_local, atom.mult_local, handle, loop_body))
        else:
            columns = frozenset(col for col, _ in atom.bound)
            colset = self.ctx.env.add("fs", columns)
            bucket = self._fresh("bu")
            if len(atom.bound) == 1:
                probe = atom.bound[0][1]
            else:
                probe = self._shared_key(
                    nodes, _key_source(atom.bound),
                    frozenset(local for _, local in atom.bound),
                )
            nodes.append(ir.IndexProbe(bucket, handle, colset, probe))
            nodes.append(ir.GuardFalsy(bucket))
            loop_body = []
            nodes.append(ir.ItemsLoop(atom.row_local, atom.mult_local, bucket, loop_body))
        for var, position, local in atom.unbound:
            loop_body.append(ir.Extract(local, atom.row_local, position))
        for position, local in atom.eq_checks:
            loop_body.append(ir.FieldGuard(atom.row_local, position, local))
        return loop_body

    def _value_for(self, var: str, plan: _TermPlan) -> str:
        local = plan.names.get(var)
        if local is not None:
            return local
        return self._trigger_local(var)

    def _target_key_source(self, value_of: Callable[[str], str]) -> str:
        """The target key tuple (target keys are in the map's column order)."""
        return _key_source(
            (key, value_of(key)) for key in self.statement.target_keys
        )

    def _shared_key(self, nodes: list[ir.Node], source: str, deps: frozenset[str]) -> str:
        """A key-tuple build — shared across fused statements when possible.

        When every component is a trigger local, the tuple build is named
        into a ``Let`` and cached, so identical keys across fused statements
        (the Q1 shape: every aggregate map keyed by the same group-by
        columns; the Q3 shape: sibling maps probed by the same trigger keys)
        construct once per event.
        """
        dedup = self.ctx.dedup
        if (
            dedup is None
            or source == "()"
            or not deps <= self.ctx.trigger_local_names
        ):
            return source
        key = ("row", source)
        shared = dedup.reuse(key)
        if shared is not None:
            return shared
        local = self._fresh("kr")
        node = ir.Let(local, source)
        nodes.append(node)
        self._attach(dedup.reserve(key, local), node, nodes)
        return local

    def _target_key_expr(self, nodes: list[ir.Node], plan: _TermPlan) -> str:
        """The sink key row for ``plan`` — a dedup candidate when fused."""
        source = self._target_key_source(lambda k: self._value_for(k, plan))
        deps = frozenset(
            self._value_for(key, plan) for key in self.statement.target_keys
        )
        return self._shared_key(nodes, source, deps)

    def _emit_acc(self, nodes: list[ir.Node], plan) -> str:
        """The per-row delta: factor product in term order, dead on zero.

        A single factor is used directly (it is already a local; re-loading
        a name is cheaper than aliasing it), a product is computed once into
        a fresh local; either way the delta is zero-checked before the sink
        sees it, exactly like the evaluator's result-GMR zero drop.
        """
        if not plan.factors:
            return "1"
        if len(plan.factors) == 1:
            factor = plan.factors[0]
            self._guard_nonzero(nodes, factor)
            return factor
        acc = self._fresh("acc")
        nodes.append(ir.Let(acc, " * ".join(plan.factors)))
        nodes.append(ir.GuardZero(acc))
        return acc

    def _guard_nonzero(self, nodes: list[ir.Node], expr: str) -> None:
        """Zero-guard ``expr`` unless the previous node just guarded it.

        A single-factor delta whose factor is a value-step local arrives
        here immediately after that step's own zero guard; between two
        consecutive nodes the local cannot change, so the repeat guard is
        provably dead and skipping it is exact.
        """
        last = nodes[-1] if nodes else None
        if isinstance(last, ir.GuardZero) and last.expr == expr:
            return
        nodes.append(ir.GuardZero(expr))

    def _merge_key_tuple(self, plan: _TermPlan, colset_ids) -> str:
        colset = frozenset(plan.colset)
        cs = colset_ids[colset]
        values = ", ".join(self._value_for(v, plan) for v in sorted(colset))
        return f"({cs}, {values},)" if colset else f"({cs},)"

    def _group_key_tuple(self, plan: _TermPlan, group) -> str:
        gk = ", ".join(self._value_for(g, plan) for g in group)
        return f"({gk},)" if group else "()"

    def _emit_sink(
        self, nodes, plan, mode, group, colset_ids,
        add_local, merge_local, group_local, pending_local,
    ) -> None:
        acc = self._emit_acc(nodes, plan)

        if mode == "direct":
            key = self._target_key_expr(nodes, plan)
            nodes.append(ir.AddDelta(add_local, key, acc))
            return
        if mode == "pending":
            key = self._target_key_expr(nodes, plan)
            nodes.append(ir.ListAppend(pending_local, f"({key}, {acc})"))
            return
        if mode == "group":
            nodes.append(ir.DictMerge(
                group_local, self._fresh("k"), self._group_key_tuple(plan, group), acc,
            ))
            return
        # merge mode: key by (colset id, values of the produced row).
        nodes.append(ir.DictMerge(
            merge_local, self._fresh("k"), self._merge_key_tuple(plan, colset_ids), acc,
        ))

    def _emit_group_epilogue(self, body, plan, group, group_local, sink) -> None:
        """Iterate the group accumulator; ``sink(key_expr, mult_local)`` makes
        the per-entry node — ``+=`` adds to the target, ``:=`` plain-merges
        into the assignment dict (both paths share this shape)."""
        if plan is None:
            return
        gk, m = self._fresh("gk"), self._fresh("m")
        positions = {g: i for i, g in enumerate(group)}

        def value_of(key: str) -> str:
            if key in positions:
                return f"{gk}[{positions[key]}]"
            return self._trigger_local(key)

        key = self._target_key_source(value_of)
        body.append(ir.ItemsLoop(gk, m, group_local, [sink(key, m)]))

    def _emit_merge_epilogue(self, body, plans, colset_ids, merge_local, sink) -> None:
        """Iterate the sum-merge accumulator, dispatching on each entry's
        colset id to rebuild its target key; ``sink(key_expr, mult_local)``
        makes the per-entry node (shared by the ``+=`` and ``:=`` paths)."""
        by_id: dict[int, frozenset[str]] = {}
        for plan in plans:
            colset = frozenset(plan.colset)
            by_id[colset_ids[colset]] = colset

        bk, m = self._fresh("bk"), self._fresh("m")
        loop_body: list[ir.Node] = []
        body.append(ir.ItemsLoop(bk, m, merge_local, loop_body))
        if len(by_id) == 1:
            (_, colset), = by_id.items()
            loop_body.append(sink(self._merge_key_source(colset, bk), m))
        else:
            cs = self._fresh("cs")
            loop_body.append(ir.Let(cs, f"{bk}[0]"))
            cases = []
            for branch_id, colset in sorted(by_id.items()):
                key = self._merge_key_source(colset, bk)
                cases.append((f"{cs} == {branch_id}", [sink(key, m)]))
            loop_body.append(ir.Branch(cases))

    def _merge_key_source(self, colset: frozenset[str], bk_local: str) -> str:
        positions = {v: i + 1 for i, v in enumerate(sorted(colset))}

        def value_of(key: str) -> str:
            if key in positions:
                return f"{bk_local}[{positions[key]}]"
            return self._trigger_local(key)

        return self._target_key_source(value_of)
