"""Emission: the only place kernel Python source is generated.

The fuser (:mod:`repro.codegen.trigger`) hands this module the IR tree
(:mod:`repro.codegen.ir`) the planner built for a trigger's statements;
:func:`emit_function` walks it once and renders the kernel source string that
:class:`~repro.codegen.trigger.TriggerKernel` compiles.

The one piece of state the walk carries is the **abort stack**: what "this
row/term produces nothing" compiles to at the current point — ``return`` at
function top level, ``break`` inside a one-pass scope, ``continue`` inside a
scan loop.  Guards read the top of the stack; block nodes push and pop it.
A caller that knows a body must never abort at its level (an unscoped fused
statement) passes ``abort=None``, and a guard reaching that sentinel raises
:class:`~repro.codegen.lowering.Unsupported` rather than emit unsound code.
"""

from __future__ import annotations

from repro.codegen import ir
from repro.codegen.lowering import Unsupported


class _Writer:
    """Tiny indented-source writer with the abort-statement stack."""

    def __init__(self, abort: str | None) -> None:
        self.lines: list[str] = []
        self.depth = 0
        self._aborts: list[str | None] = [abort]

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    @property
    def abort(self) -> str:
        top = self._aborts[-1]
        if top is None:
            raise Unsupported("guard outside any abort scope")
        return top

    def push(self, abort: str | None) -> None:
        self.depth += 1
        self._aborts.append(abort)

    def pop(self) -> None:
        self.depth -= 1
        self._aborts.pop()

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def emit_function(
    name: str,
    params: tuple[str, ...],
    body: list[ir.Node],
    abort: str | None = "return",
) -> str:
    """Render ``def name(params):`` with ``body`` as the function's source."""
    writer = _Writer(abort)
    writer.line(f"def {name}({', '.join(params)}):")
    writer.depth += 1
    if not body:
        writer.line("pass")
    else:
        _emit_nodes(writer, body)
    writer.depth -= 1
    return writer.source()


def _emit_nodes(writer: _Writer, nodes: list[ir.Node]) -> None:
    for node in nodes:
        if node is not None:  # a fused-away (hoisted) slot
            _emit_node(writer, node)


def _emit_block_body(writer: _Writer, nodes: list[ir.Node]) -> None:
    """A block body; renders ``pass`` when every child was fused away."""
    before = len(writer.lines)
    _emit_nodes(writer, nodes)
    if len(writer.lines) == before:
        writer.line("pass")


def _emit_node(writer: _Writer, node: ir.Node) -> None:
    kind = node.kind
    line = writer.line
    if kind == "event_load":
        line(f"{node.local} = _values[{node.index}]")
    elif kind == "bind_method":
        line(f"{node.local} = {node.handle}.{node.attr}")
    elif kind == "let":
        line(f"{node.local} = {node.expr}")
    elif kind == "norm":
        line(f"{node.local} = _norm({node.expr})")
    elif kind == "lift_bind":
        line(f"{node.local} = _norm({node.expr})")
        line(f"if _is_zero({node.local}):")
        line(f"    {node.local} = 0")
    elif kind == "guard_cond":
        line(f"if not {node.expr}:")
        line(f"    {writer.abort}")
    elif kind == "guard_zero":
        line(f"if _is_zero({node.expr}):")
        line(f"    {writer.abort}")
    elif kind == "guard_none":
        line(f"if {node.local} is None:")
        line(f"    {writer.abort}")
    elif kind == "guard_falsy":
        line(f"if not {node.local}:")
        line(f"    {writer.abort}")
    elif kind == "guard_eq":
        line(f"if {node.left} != {node.right}:")
        line(f"    {writer.abort}")
    elif kind == "field_guard":
        line(f"if {node.row_local}[{node.pos}] != {node.local}:")
        line(f"    {writer.abort}")
    elif kind == "primary_probe":
        line(f"{node.local} = {node.handle}.primary.get({node.key_expr})")
    elif kind == "default_zero":
        line(f"if {node.local} is None:")
        line(f"    {node.local} = 0")
    elif kind == "index_probe":
        line(f"{node.local} = {node.handle}.index_for({node.colset}).get({node.key_expr})")
    elif kind == "range_probe":
        line(
            f"{node.local} = {node.probe_local}"
            f"({node.column!r}, {node.op!r}, {node.cutoff_expr}, {node.chain})"
        )
    elif kind == "extract":
        line(f"{node.local} = {node.row_local}[{node.pos}]")
    elif kind == "dict_merge":
        line(f"{node.key_local} = {node.key_expr}")
        line(f"_o = {node.target}.get({node.key_local}, 0)")
        line(f"_n = _o + {node.value_expr}")
        line("if _is_zero(_n):")
        line(f"    {node.target}.pop({node.key_local}, None)")
        line("else:")
        line(f"    {node.target}[{node.key_local}] = _norm(_n)")
    elif kind == "plain_merge":
        line(f"{node.key_local} = {node.key_expr}")
        line(
            f"{node.target}[{node.key_local}] = "
            f"{node.target}.get({node.key_local}, 0) + {node.value_expr}"
        )
    elif kind == "append":
        line(f"{node.target}.append({node.expr})")
    elif kind == "sink_add":
        line(f"{node.add_local}({node.key_expr}, {node.value_expr})")
    elif kind == "agg_chain":
        line(f"{node.tmp_local} = {node.result} + {node.product_expr}")
        line(f"{node.result} = 0 if _is_zero({node.tmp_local}) else _norm({node.tmp_local})")
    elif kind == "agg_plain":
        line(f"{node.result} = {node.result} + _norm({node.product_expr})")
    elif kind == "replace":
        line(f"{node.handle}.replace({node.arg_expr})")
    elif kind == "stmt":
        line(node.expr)
    elif kind == "scope":
        line(f"for {node.var} in _ONE_PASS:")
        writer.push("break")
        _emit_block_body(writer, node.body)
        writer.pop()
    elif kind == "full_scan":
        line(f"for {node.row_local}, {node.mult_local} in {node.handle}.primary.items():")
        writer.push("continue")
        _emit_block_body(writer, node.body)
        writer.pop()
    elif kind == "items_loop":
        line(f"for {node.key_local}, {node.value_local} in {node.subject}.items():")
        writer.push("continue")
        _emit_block_body(writer, node.body)
        writer.pop()
    elif kind == "pair_loop":
        line(f"for {node.key_local}, {node.value_local} in {node.subject}:")
        writer.push("continue")
        _emit_block_body(writer, node.body)
        writer.pop()
    elif kind == "branch":
        for position, (condition, body) in enumerate(node.cases):
            line(f"{'if' if position == 0 else 'elif'} {condition}:")
            writer.depth += 1
            _emit_block_body(writer, body)
            writer.depth -= 1
    else:  # pragma: no cover - planner and emitter enumerate the same kinds
        raise Unsupported(f"unknown IR node kind {kind!r}")
