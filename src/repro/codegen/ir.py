"""The kernel IR: typed operations between statement planning and emission.

The codegen pipeline is staged — mirroring the paper's toolchain, which
lowers the delta calculus through intermediate trigger languages before
emitting target code:

1. **plan** (:mod:`repro.codegen.statement`): walk one trigger statement's
   AGCA expression and produce a tree of the node types in this module —
   event loads, table-handle method binds, primary/secondary/range probes,
   bucket loops, scalar ops, aggregate accumulators, sink merges;
2. **fuse** (:mod:`repro.codegen.trigger`): concatenate the statement IRs of
   one ``(relation, op)`` trigger, hoisting shared event unpacks and
   deduplicating identical probe/condition subtrees across statements;
3. **emit** (:mod:`repro.codegen.emit`): the only place Python source is
   generated — a single walk over the IR.

Nodes are deliberately *thin*: scalar expressions stay as Python expression
source fragments (produced by :mod:`repro.codegen.lowering` over named
locals), because AGCA value arithmetic is pure and maps 1:1 onto Python
expressions.  What the IR makes explicit is everything with *structure* —
control flow, abort scoping, table access shape, accumulation discipline —
which is exactly what fusion needs to reason about.

Every node carries a ``kind`` tag.  :func:`count_ops` aggregates them for
the ``python -m repro.codegen dump`` CLI and the fusion statistics, and
:func:`needs_scope` decides whether a fused statement body must be wrapped
in an abort scope (it contains top-level guards) or can run bare.
"""

from __future__ import annotations

from typing import Iterable


class Node:
    """Base class of every IR operation."""

    __slots__ = ()
    kind = ""
    #: Block nodes carry a ``body`` list and scope the abort statement.
    is_block = False


# ---------------------------------------------------------------------------
# Preamble operations
# ---------------------------------------------------------------------------


class EventLoad(Node):
    """``local = _values[index]`` — one positional trigger-variable load."""

    __slots__ = ("local", "index")
    kind = "event_load"

    def __init__(self, local: str, index: int) -> None:
        self.local = local
        self.index = index


class BindMethod(Node):
    """``local = handle.attr`` — hoist a bound method of a table handle."""

    __slots__ = ("local", "handle", "attr")
    kind = "bind_method"

    def __init__(self, local: str, handle: str, attr: str) -> None:
        self.local = local
        self.handle = handle
        self.attr = attr


# ---------------------------------------------------------------------------
# Scalar operations
# ---------------------------------------------------------------------------


class Let(Node):
    """``local = expr`` — a plain binding (products, dicts, lists, rows)."""

    __slots__ = ("local", "expr")
    kind = "let"

    def __init__(self, local: str, expr: str) -> None:
        self.local = local
        self.expr = expr


class Norm(Node):
    """``local = _norm(expr)`` — a normalized scalar value factor."""

    __slots__ = ("local", "expr")
    kind = "norm"

    def __init__(self, local: str, expr: str) -> None:
        self.local = local
        self.expr = expr


class NormOrZero(Node):
    """Lift-binding semantics: normalize, coercing zero-ish to the int ``0``."""

    __slots__ = ("local", "expr")
    kind = "lift_bind"

    def __init__(self, local: str, expr: str) -> None:
        self.local = local
        self.expr = expr


# ---------------------------------------------------------------------------
# Guards (the abort-emitting nodes)
# ---------------------------------------------------------------------------


class GuardCond(Node):
    """``if not expr: abort`` — a lowered comparison condition."""

    __slots__ = ("expr",)
    kind = "guard_cond"

    def __init__(self, expr: str) -> None:
        self.expr = expr


class GuardZero(Node):
    """``if _is_zero(expr): abort`` — zero deltas contribute nothing."""

    __slots__ = ("expr",)
    kind = "guard_zero"

    def __init__(self, expr: str) -> None:
        self.expr = expr


class GuardNone(Node):
    """``if local is None: abort`` — a missed primary probe."""

    __slots__ = ("local",)
    kind = "guard_none"

    def __init__(self, local: str) -> None:
        self.local = local


class GuardFalsy(Node):
    """``if not local: abort`` — a missed or empty index bucket."""

    __slots__ = ("local",)
    kind = "guard_falsy"

    def __init__(self, local: str) -> None:
        self.local = local


class GuardNotEq(Node):
    """``if left != right: abort`` — an equality-lift check."""

    __slots__ = ("left", "right")
    kind = "guard_eq"

    def __init__(self, left: str, right: str) -> None:
        self.left = left
        self.right = right


class FieldGuard(Node):
    """``if row[pos] != local: abort`` — in-row repeat equality."""

    __slots__ = ("row_local", "pos", "local")
    kind = "field_guard"

    def __init__(self, row_local: str, pos: int, local: str) -> None:
        self.row_local = row_local
        self.pos = pos
        self.local = local


#: Node kinds that emit the current abort statement.
ABORT_KINDS = frozenset(
    ("guard_cond", "guard_zero", "guard_none", "guard_falsy", "guard_eq", "field_guard")
)


# ---------------------------------------------------------------------------
# Table access
# ---------------------------------------------------------------------------


class Probe(Node):
    """``local = handle.primary.get(key_expr)`` — a bound-key primary probe."""

    __slots__ = ("local", "handle", "key_expr")
    kind = "primary_probe"

    def __init__(self, local: str, handle: str, key_expr: str) -> None:
        self.local = local
        self.handle = handle
        self.key_expr = key_expr


class DefaultZero(Node):
    """``if local is None: local = 0`` — a missed total probe reads as 0."""

    __slots__ = ("local",)
    kind = "default_zero"

    def __init__(self, local: str) -> None:
        self.local = local


class IndexProbe(Node):
    """``local = handle.index_for(colset).get(key_expr)`` — secondary probe."""

    __slots__ = ("local", "handle", "colset", "key_expr")
    kind = "index_probe"

    def __init__(self, local: str, handle: str, colset: str, key_expr: str) -> None:
        self.local = local
        self.handle = handle
        self.colset = colset
        self.key_expr = key_expr


class RangeProbe(Node):
    """``local = range_sum(column, op, cutoff, chain)`` — an ordered probe."""

    __slots__ = ("local", "probe_local", "column", "op", "cutoff_expr", "chain")
    kind = "range_probe"

    def __init__(
        self, local: str, probe_local: str, column: str, op: str,
        cutoff_expr: str, chain: bool,
    ) -> None:
        self.local = local
        self.probe_local = probe_local
        self.column = column
        self.op = op
        self.cutoff_expr = cutoff_expr
        self.chain = chain


class Extract(Node):
    """``local = row[pos]`` — positional unbound-variable read."""

    __slots__ = ("local", "row_local", "pos")
    kind = "extract"

    def __init__(self, local: str, row_local: str, pos: int) -> None:
        self.local = local
        self.row_local = row_local
        self.pos = pos


# ---------------------------------------------------------------------------
# Accumulators and sinks
# ---------------------------------------------------------------------------


class DictMerge(Node):
    """GMR ``add_tuple`` on a plain dict: add, drop on zero, normalize."""

    __slots__ = ("target", "key_local", "key_expr", "value_expr")
    kind = "dict_merge"

    def __init__(self, target: str, key_local: str, key_expr: str, value_expr: str) -> None:
        self.target = target
        self.key_local = key_local
        self.key_expr = key_expr
        self.value_expr = value_expr


class PlainMerge(Node):
    """``target[k] = target.get(k, 0) + value`` — the executor's plain grouping."""

    __slots__ = ("target", "key_local", "key_expr", "value_expr")
    kind = "plain_merge"

    def __init__(self, target: str, key_local: str, key_expr: str, value_expr: str) -> None:
        self.target = target
        self.key_local = key_local
        self.key_expr = key_expr
        self.value_expr = value_expr


class ListAppend(Node):
    """``target.append(expr)`` — buffer a pending (key, delta) pair."""

    __slots__ = ("target", "expr")
    kind = "append"

    def __init__(self, target: str, expr: str) -> None:
        self.target = target
        self.expr = expr


class AddDelta(Node):
    """``add(key, value)`` — the sink merge into the target table."""

    __slots__ = ("add_local", "key_expr", "value_expr")
    kind = "sink_add"

    def __init__(self, add_local: str, key_expr: str, value_expr: str) -> None:
        self.add_local = add_local
        self.key_expr = key_expr
        self.value_expr = value_expr


class ChainAccum(Node):
    """One GMR aggregation-chain step: add, drop on zero, normalize."""

    __slots__ = ("result", "product_expr", "tmp_local")
    kind = "agg_chain"

    def __init__(self, result: str, product_expr: str, tmp_local: str) -> None:
        self.result = result
        self.product_expr = product_expr
        self.tmp_local = tmp_local


class PlainAccum(Node):
    """``result = result + _norm(product)`` — Exists' plain summation."""

    __slots__ = ("result", "product_expr")
    kind = "agg_plain"

    def __init__(self, result: str, product_expr: str) -> None:
        self.result = result
        self.product_expr = product_expr


class Replace(Node):
    """``handle.replace(arg_expr)`` — the ``:=`` statement's final store."""

    __slots__ = ("handle", "arg_expr")
    kind = "replace"

    def __init__(self, handle: str, arg_expr: str) -> None:
        self.handle = handle
        self.arg_expr = arg_expr


class ExprStmt(Node):
    """``expr`` as a bare statement (e.g. the fused base-relation apply)."""

    __slots__ = ("expr",)
    kind = "stmt"

    def __init__(self, expr: str) -> None:
        self.expr = expr


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------


class OnePass(Node):
    """``for var in _ONE_PASS:`` — an abort scope (abort becomes ``break``)."""

    __slots__ = ("var", "body")
    kind = "scope"
    is_block = True

    def __init__(self, var: str, body: list[Node]) -> None:
        self.var = var
        self.body = body


class FullScan(Node):
    """``for row, mult in handle.primary.items():`` — an unbound atom scan."""

    __slots__ = ("row_local", "mult_local", "handle", "body")
    kind = "full_scan"
    is_block = True

    def __init__(self, row_local: str, mult_local: str, handle: str, body: list[Node]) -> None:
        self.row_local = row_local
        self.mult_local = mult_local
        self.handle = handle
        self.body = body


class ItemsLoop(Node):
    """``for k, v in subject.items():`` — bucket / accumulator iteration."""

    __slots__ = ("key_local", "value_local", "subject", "body")
    kind = "items_loop"
    is_block = True

    def __init__(self, key_local: str, value_local: str, subject: str, body: list[Node]) -> None:
        self.key_local = key_local
        self.value_local = value_local
        self.subject = subject
        self.body = body


class PairLoop(Node):
    """``for k, v in subject:`` — iterate a list of pairs (pending sinks)."""

    __slots__ = ("key_local", "value_local", "subject", "body")
    kind = "pair_loop"
    is_block = True

    def __init__(self, key_local: str, value_local: str, subject: str, body: list[Node]) -> None:
        self.key_local = key_local
        self.value_local = value_local
        self.subject = subject
        self.body = body


class Branch(Node):
    """``if cond: ... elif cond: ...`` — the merge epilogue's colset dispatch.

    ``cases`` is a list of ``(condition_source, body)`` pairs; the first case
    emits ``if``, the rest ``elif``.  Branch bodies share the *enclosing*
    abort scope (no abort of their own).
    """

    __slots__ = ("cases",)
    kind = "branch"
    is_block = True

    def __init__(self, cases: list[tuple[str, list[Node]]]) -> None:
        self.cases = cases

    @property
    def body(self) -> list[Node]:  # uniform traversal surface
        out: list[Node] = []
        for _, nodes in self.cases:
            out.extend(nodes)
        return out


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------


def walk(nodes: Iterable[Node]):
    """Yield every node in the tree, pre-order (``None`` slots are skipped)."""
    for node in nodes:
        if node is None:  # a fused-away (hoisted) slot
            continue
        yield node
        if node.is_block:
            yield from walk(node.body)


def count_ops(nodes: Iterable[Node]) -> dict[str, int]:
    """IR operation counts by kind (the ``dump`` CLI's summary line)."""
    counts: dict[str, int] = {}
    for node in walk(nodes):
        counts[node.kind] = counts.get(node.kind, 0) + 1
    return dict(sorted(counts.items()))


def needs_scope(nodes: Iterable[Node]) -> bool:
    """True when a fused statement body must run inside an abort scope.

    A top-level guard aborts the *statement*; in a fused kernel that must
    not abort the sibling statements, so such bodies are wrapped in a
    one-pass loop.  Guards inside loops or one-pass wrappers already abort
    locally.  ``Branch`` bodies share the enclosing scope and are searched.
    """
    for node in nodes:
        if node is None:
            continue
        if node.kind in ABORT_KINDS:
            return True
        if isinstance(node, Branch) and needs_scope(node.body):
            return True
    return False
