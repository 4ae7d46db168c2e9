"""Whole-trigger fusion: one compiled function per (relation, op) trigger.

The paper compiles each trigger of the viewlet-transformed program into one
function; this module is that step, in two halves.  :func:`plan_trigger`
plans the statements of one trigger with a shared context into one
:class:`TriggerPlan` — a head (preamble, dedup prefix, hoisted guards) and
one node list per step — and :func:`try_fuse_trigger` emits that plan as a
single ``_kernel(_values)`` function, the only scalar kernel the codegen
emits.  The columnar emitter (:mod:`repro.codegen.vector`) reads the same
plan for its one vector kernel per trigger.  The plan gives:

* **shared preamble** — every trigger variable loads once, every table
  handle and bound method (``add``, ``range_sum``) binds once, no matter
  how many statements use them (one :class:`~repro.codegen.statement.KernelContext`
  threads through all statements);
* **cross-statement dedup** — identical probe/condition/value/row-build
  subtrees whose inputs are trigger variables only are computed once: the
  planner consults the :class:`FusionCache` while planning each statement,
  so later statements reference the first computation's local directly, and
  every subtree used by more than one statement is hoisted into a shared
  prefix that runs before the statement bodies (the Q1 shape: seven
  aggregate maps guarded by the same predicate and keyed by the same
  group-by columns).  Probes only share while the probed table is untouched
  by every fused step that ran before the reusing statement, so each
  statement still reads exactly the state sequential execution would have
  shown it;
* **scoped statement bodies** — each statement whose body can abort runs
  inside its own one-pass loop (the last statement runs bare and aborts via
  ``return``), so "this statement contributes nothing" becomes ``break`` and
  the sibling statements still run.  Statement order, the increments →
  base-relation apply → assigns sequence, and the interpreter's
  zero-drop/normalize/enumeration-order rules are preserved exactly: fused
  views are bit-identical — values and types — to interpreted execution.

Fusion is all-or-nothing per trigger: any statement the planner declines,
and any surprise during fusion, leaves the whole trigger on the interpreter
rather than risk an unsound kernel.  The per-event kernel fuses every step;
the batched engine additionally fuses the ``+=`` steps (with the base apply)
and the ``:=`` steps of a bulk-safe trigger as two separate kernels, so a
bulk run can evaluate its ``:=`` statements once.  The plan of the ``+=``
steps is also the one the vector emitter walks.
"""

from __future__ import annotations

import re
from typing import Any, Callable, NamedTuple, Sequence

from repro.codegen import ir
from repro.codegen.emit import emit_function
from repro.codegen.lowering import Unsupported
from repro.codegen.statement import KernelContext, _StatementCompiler
from repro.compiler.program import ASSIGN, Statement, Trigger, TriggerProgram

#: Node kinds that define one local and are pure enough to scan past when
#: collecting a step's leading guards (value bindings and probes).
_PURE_DEF_KINDS = frozenset(
    ("let", "norm", "lift_bind", "primary_probe", "index_probe", "range_probe")
)

_NAME_RE = re.compile(r"\b_\w+\b")


def _guard_key(node: ir.Node) -> tuple | None:
    """A content key identifying one guard across statements, or None."""
    kind = node.kind
    if kind in ("guard_cond", "guard_zero"):
        return (kind, node.expr)
    if kind in ("guard_none", "guard_falsy"):
        return (kind, node.local)
    if kind == "guard_eq":
        return (kind, node.left, node.right)
    return None


def _referenced(node: ir.Node) -> set[str]:
    """Underscore-prefixed names a guard (or prefix def) reads."""
    parts: list[str] = []
    for attr in ("expr", "local", "left", "right", "key_expr", "cutoff_expr"):
        value = getattr(node, attr, None)
        if isinstance(value, str):
            parts.append(value)
    names: set[str] = set()
    for part in parts:
        names.update(_NAME_RE.findall(part))
    return names


def _leading_guards(body: list[ir.Node]) -> dict[tuple, int]:
    """The guards heading one step body: content key -> position.

    Scans from the top past pure value definitions and other guards; stops
    at the first node with effects (loops, sinks, merges, the base apply).
    Guards reading a local defined *inside* this step are skipped — they
    cannot move above their definition — but scanning continues, because
    reordering pure guards against each other only changes which of several
    aborts fires first, never the outcome.
    """
    found: dict[tuple, int] = {}
    step_locals: set[str] = set()
    for position, node in enumerate(body):
        if node is None:  # a def already hoisted into the shared prefix
            continue
        key = _guard_key(node)
        if key is not None:
            if not (_referenced(node) & step_locals):
                found.setdefault(key, position)
            continue
        if node.kind in _PURE_DEF_KINDS:
            step_locals.add(node.local)
            continue
        break
    return found


def _hoist_common_guards(
    step_bodies: list[list[ir.Node]],
) -> list[ir.Node]:
    """Extract guards shared by the leading region of *every* fused step.

    A guard common to all steps means "if this fails, every statement
    contributes nothing" — so it runs once at kernel top (its abort is
    ``return``) instead of once in every statement, and the statements' bodies
    shrink accordingly.  Steps with an empty leading set (notably the
    base-relation apply, which must run unconditionally) block hoisting,
    which is exactly the required semantics.  Returns the hoisted guard
    nodes in first-step order.
    """
    if len(step_bodies) < 2:
        return []
    per_step = [_leading_guards(body) for body in step_bodies]
    common = set(per_step[0])
    for found in per_step[1:]:
        common &= set(found)
        if not common:
            return []
    first = per_step[0]
    hoisted: list[ir.Node] = []
    for key in sorted(common, key=lambda k: first[k]):
        hoisted.append(step_bodies[0][first[key]])
        for body, found in zip(step_bodies, per_step):
            body[found[key]] = None
    return hoisted


def _weave_guards(
    head: list[ir.Node], guards: list[ir.Node], known: set[str]
) -> list[ir.Node]:
    """Interleave hoisted guards into the kernel head, earliest-sound first.

    Each guard is placed immediately after the last definition it reads, so
    a failing guard (a filtered event) skips the prefix computations that
    only matter when it passes, so a statement's values are never computed
    once its leading condition fails.
    """
    placed: list[ir.Node] = []
    pending = list(guards)

    def flush() -> None:
        index = 0
        while index < len(pending):
            guard = pending[index]
            if _referenced(guard) <= known:
                placed.append(guard)
                pending.pop(index)
            else:
                index += 1

    flush()
    for node in head:
        placed.append(node)
        local = getattr(node, "local", None)
        if isinstance(local, str):
            known.add(local)
        flush()
    placed.extend(pending)  # unresolvable references: guard at the end
    return placed


class _SharedDef:
    """One dedup-eligible computation: where it was defined, who shares it."""

    __slots__ = ("local", "expr", "node", "container", "position", "shared", "table_epoch")

    def __init__(self, local: str, table_epoch: int) -> None:
        self.local = local
        self.expr = ""          # conditions: the original boolean source
        self.node: ir.Node | None = None
        self.container: list | None = None
        self.position = -1
        self.shared = False
        self.table_epoch = table_epoch


class FusionCache:
    """Cross-statement common-subexpression cache for one fused trigger.

    The statement planner consults it for every top-level probe, condition,
    value factor, lift binding and sink-row build whose inputs are trigger
    locals only (so the computation is legal in the kernel prefix, which
    runs before every statement).  A hit reuses the defining statement's
    local directly — no aliasing — and marks the definition *shared*;
    :meth:`finalize` then moves every shared definition into the prefix.

    Probe entries carry the probed table's **write epoch**: each fused step
    that writes a table bumps its epoch (:meth:`mark_write`), and a probe
    only shares while its table's epoch is unchanged *and* was zero at
    definition time — i.e. no fused step running before the reusing
    statement has written the table, so hoisting the probe to the prefix
    reads exactly the state sequential execution would have shown every
    sharer.
    """

    __slots__ = (
        "defs", "table_epochs", "deduped_probes", "deduped_scalars", "_retired",
    )

    def __init__(self) -> None:
        self.defs: dict[tuple, _SharedDef] = {}
        self.table_epochs: dict[str, int] = {}
        self.deduped_probes = 0
        self.deduped_scalars = 0
        # Stale probe definitions already shared by earlier statements: no
        # longer reusable, but they still MUST hoist (their shared local is
        # read across statement scopes).
        self._retired: list[_SharedDef] = []

    def mark_write(self, handle: str) -> None:
        """A fused step wrote ``handle``: stale every probe of it."""
        self.table_epochs[handle] = self.table_epochs.get(handle, 0) + 1

    def reuse(self, key: tuple, table: str | None = None) -> str | None:
        """The shared local for ``key``, or None when it must be computed."""
        definition = self.defs.get(key)
        if definition is None:
            return None
        if table is not None and definition.table_epoch != self.table_epochs.get(table, 0):
            # Stale: a fused step wrote the table since.  Drop the cache
            # entry so later statements compute fresh — but a definition
            # already shared by earlier statements must still be hoisted,
            # or its cross-scope readers would see an unbound local.
            del self.defs[key]
            if definition.shared:
                self._retired.append(definition)
            return None
        definition.shared = True
        if key[0] == "probe":
            self.deduped_probes += 1
        else:
            self.deduped_scalars += 1
        return definition.local

    def reserve(self, key: tuple, local: str, table: str | None = None) -> tuple | None:
        """Record a fresh definition; returns the key to attach, or None.

        Probe definitions are only recorded while their table is still
        unwritten by earlier fused steps — otherwise the computation cannot
        move to the prefix and sharing it would be unsound.
        """
        if table is not None and self.table_epochs.get(table, 0) != 0:
            return None
        self.defs[key] = _SharedDef(local, self.table_epochs.get(table, 0))
        return key

    def reuse_condition(self, key: tuple, fresh: Callable[[str], str]) -> str | None:
        """The shared boolean local for a condition, allocating it lazily.

        Conditions have no local until first reuse: the defining site keeps
        guarding the inline expression, and only when a second statement
        shares it does the expression move into a named prefix local (the
        defining guard is rewritten to test it at :meth:`finalize`).
        """
        definition = self.defs.get(key)
        if definition is None:
            return None
        if not definition.local:
            definition.local = fresh("cc")
            definition.expr = key[1]
        definition.shared = True
        self.deduped_scalars += 1
        return definition.local

    def reserve_condition(self, key: tuple) -> tuple:
        self.defs[key] = _SharedDef("", 0)
        return key

    def discard(self, keys) -> None:
        """Drop reservations whose term went dead before any IR was built.

        A zero-constant factor kills its term mid-planning: factors planned
        earlier in that term reserved cache entries whose defining nodes
        will never be emitted, so a later statement reusing one would
        reference a local that does not exist.  Only unattached definitions
        are dropped — the dying term is the only possible sharer of its own
        reservations, so this cannot strand a cross-statement reader.
        """
        for key in keys:
            definition = self.defs.get(key)
            if definition is not None and definition.node is None:
                del self.defs[key]

    def attach(self, key: tuple, node: ir.Node, container: list, position: int) -> None:
        """Bind a reserved definition to its IR node and body slot."""
        definition = self.defs.get(key)
        if definition is not None and definition.node is None:
            definition.node = node
            definition.container = container
            definition.position = position

    def finalize(self) -> list[ir.Node]:
        """Hoist every shared definition into the prefix.

        Value definitions (norms, lifts, row builds, condition expressions)
        read trigger locals only and emit first, in definition order; probe
        definitions may read a hoisted key-row local and emit after them.
        A hoisted probe whose key row is a cached single-use definition
        drags that row into the prefix with it — the probe moves above the
        row's original site, so the row must move too.
        """
        candidates = [*self.defs.values(), *self._retired]
        shared = [d for d in candidates if d.shared and d.node is not None]
        probes = [d for d in shared if d.node.kind == "primary_probe"]
        values = [d for d in shared if d.node.kind != "primary_probe"]
        by_local = {
            d.local: d
            for d in self.defs.values()
            if d.node is not None and d.local and d.node.kind == "let"
        }
        for probe in probes:
            row = by_local.get(probe.node.key_expr)
            if row is not None and not row.shared:
                row.shared = True
                values.append(row)
        prefix: list[ir.Node] = []
        for definition in values:
            if definition.expr:
                # A condition: the expression computes once into the shared
                # local; the defining guard now tests the local like every
                # other sharer.
                prefix.append(ir.Let(definition.local, definition.expr))
                definition.node.expr = definition.local
            else:
                prefix.append(definition.node)
                definition.container[definition.position] = None
        for definition in probes:
            prefix.append(definition.node)
            definition.container[definition.position] = None
        return prefix


class LinkedKernel:
    """Generated source, compiled once, linked against live tables on :meth:`bind`.

    The kernel belongs to its program and is shared by every engine over it;
    only a link is per engine.  ``bind`` resolves every table handle and
    keeps the link in the map store it was given (``maps.links``), checked
    against the resolved tables: restoring a checkpoint mutates tables in
    place, so a rebind against the same store returns the callable already
    linked, without re-``exec``-ing the code object, and the kernel itself
    holds no engine's tables.
    """

    __slots__ = ("source", "_code", "_env", "_tables")
    #: The function the source defines.
    _entry = "_kernel"

    def __init__(
        self,
        label: str,
        source: str,
        env: dict[str, Any],
        tables: Sequence[tuple[str, str, str]],
    ) -> None:
        self.source = source
        self._code = compile(source, label, "exec")
        self._env = env
        self._tables = tuple(tables)

    def _link(self, fn: Callable, namespace: dict[str, Any]) -> Any:
        """What :meth:`bind` returns for one freshly linked function."""
        return fn

    def bind(self, maps, database) -> Any:
        resolved = tuple(
            maps.table(name) if kind == "map" else database.table(name)
            for _, kind, name in self._tables
        )
        cached = maps.links.get(self)
        if cached is not None and all(a is b for a, b in zip(cached[0], resolved)):
            return cached[1]
        namespace = dict(self._env)
        for (handle, _, _), table in zip(self._tables, resolved):
            namespace[handle] = table
        exec(self._code, namespace)
        bound = self._link(namespace[self._entry], namespace)
        maps.links[self] = (resolved, bound)
        return bound


class TriggerKernel(LinkedKernel):
    """The steps of one (relation, op) trigger fused into one function.

    ``source`` holds the generated code and ``ir_ops`` the IR operation
    counts (both surfaced by ``python -m repro.codegen dump``); ``arity`` is
    the relation arity the dispatcher validates before the kernel indexes
    the event tuple positionally.  :meth:`bind` returns ``run(values)``.
    """

    __slots__ = ("arity", "ir_ops", "fused_statements", "deduped_probes", "deduped_scalars")

    def __init__(
        self,
        trigger: Trigger,
        source: str,
        plan: "TriggerPlan",
        ir_ops: dict[str, int],
    ) -> None:
        super().__init__(
            f"<repro.codegen:fused:{trigger.name}>", source, plan.ctx.env.env, plan.ctx.tables
        )
        self.arity = len(plan.ctx.trigger_vars)
        self.ir_ops = ir_ops
        self.fused_statements = sum(1 for statement, _ in plan.steps if statement)
        self.deduped_probes = plan.cache.deduped_probes
        self.deduped_scalars = plan.cache.deduped_scalars


def program_kernels(program: TriggerProgram) -> dict[tuple[int, str], TriggerKernel | None]:
    """Each trigger's fused kernel, keyed ``(sign, relation)``; None where it declines.

    Built once per program object and shared by every engine over it.
    Triggers without statements are absent.
    """
    return program.built("fused", _fuse_all)


def _fuse_all(program: TriggerProgram) -> dict[tuple[int, str], TriggerKernel | None]:
    return {
        (trigger.sign, trigger.relation): try_fuse_trigger(trigger, program)
        for trigger in program.triggers.values()
        if trigger.statements
    }


class TriggerPlan(NamedTuple):
    """One trigger planned once: the input of both emitters.

    ``head`` runs first — the preamble (event loads, method binds), the
    dedup prefix and the hoisted guards woven into it; ``steps`` follow in
    the executor's order, one live node list each, paired with the statement
    it plans (``None`` for the base-relation apply).
    """

    ctx: KernelContext
    cache: FusionCache
    head: list[ir.Node]
    steps: list[tuple[Statement | None, list[ir.Node]]]


def plan_trigger(
    trigger: Trigger,
    program: TriggerProgram,
    increments: bool = True,
    assigns: bool = True,
) -> TriggerPlan:
    """Plan the steps of ``trigger`` with one shared context and dedup cache.

    The steps interleave in the executor's order: increments in statement
    order, then the base-relation apply for maintained relations, then
    assigns.  ``increments`` selects the ``+=`` steps and the base apply,
    ``assigns`` the ``:=`` steps.  Raises :class:`Unsupported` for a trigger
    without statements, a statement outside the fragment, or a guard
    escaping its scope.
    """
    statements = list(trigger.statements)
    if not statements:
        raise Unsupported("no statements")
    trigger_vars = statements[0].event.trigger_vars
    before = [s for s in statements if s.operation != ASSIGN] if increments else []
    after = [s for s in statements if s.operation == ASSIGN] if assigns else []
    maintained = increments and trigger.relation in program.requires_base_relations()

    cache = FusionCache()
    ctx = KernelContext(trigger_vars, dedup=cache)
    steps: list[tuple[Statement | None, list[ir.Node]]] = []

    def compile_step(statement) -> None:
        compiler = _StatementCompiler(statement, program, context=ctx)
        steps.append((statement, compiler.compile()))
        cache.mark_write(ctx.table_handle("map", statement.target))

    for statement in before:
        compile_step(statement)
    if maintained:
        base_handle = ctx.table_handle("relation", trigger.relation)
        base_add = ctx.method_local(base_handle, "add", "badd")
        steps.append((None, [ir.ExprStmt(f"{base_add}(_values, {trigger.sign})")]))
        cache.mark_write(base_handle)
    for statement in after:
        compile_step(statement)

    prefix = cache.finalize()
    hoisted_guards = _hoist_common_guards([body for _, body in steps])
    head: list[ir.Node] = [*ctx.preamble(), *prefix]
    if hoisted_guards:
        head = _weave_guards(head, hoisted_guards, set(ctx.env.env))
    live = [(statement, [n for n in body if n is not None]) for statement, body in steps]
    return TriggerPlan(ctx, cache, head, live)


def try_fuse_trigger(
    trigger: Trigger,
    program: TriggerProgram,
    increments: bool = True,
    assigns: bool = True,
) -> TriggerKernel | None:
    """The scalar emit of :func:`plan_trigger`: one ``_kernel(_values)``, or None.

    Each step whose body can abort runs inside its own one-pass loop; the
    last step runs bare.  The per-event kernel takes both ``increments`` and
    ``assigns``.  Any :class:`Unsupported` returns None, and the trigger runs
    on the interpreter instead.
    """
    try:
        plan = plan_trigger(trigger, program, increments, assigns)
        body: list[ir.Node] = list(plan.head)
        last = len(plan.steps) - 1
        for position, (_, live) in enumerate(plan.steps):
            if ir.needs_scope(live) and position != last:
                body.append(ir.OnePass(plan.ctx.fresh("w"), live))
            else:
                # The last step runs bare: nothing follows it, so its aborts
                # compile to ``return``, with no one-pass wrapper overhead.
                body.extend(live)
        # Top-level abort is ``return``; only the final step may reach it (a
        # guard escaping an earlier statement's scope would corrupt the
        # siblings, which the per-step wrapping above rules out).
        source = emit_function("_kernel", ("_values",), body, abort="return")
        return TriggerKernel(trigger, source, plan, ir.count_ops(body))
    except (Unsupported, SyntaxError):
        # Unsupported is the planner declining; SyntaxError means the IR
        # rendered to invalid Python — either way, the interpreter is always
        # available and always correct.
        return None
