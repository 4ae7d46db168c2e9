"""Machine-readable kernel descriptions (``repro.kernels/1``).

The codegen pipeline already *has* a complete physical design for every
trigger — the planner decides, per map access, whether it becomes a bound-key
primary probe, a secondary-index probe, an ordered range probe or a full
scan, and the fuser decides which triggers collapse into one kernel.  This
module re-runs stage 1 (planning) purely for its IR and walks the trees into
one JSON-friendly document, shared verbatim by ``python -m repro.codegen
dump --json`` and the ``repro.inspect`` explain report.

Describing never executes kernels and never touches live tables: handles are
resolved through the planning context's handle table, so the description is
available for programs that have processed zero events.
"""

from __future__ import annotations

from typing import Any

from repro.codegen import ir
from repro.codegen.lowering import Unsupported
from repro.codegen.statement import KernelContext, _StatementCompiler
from repro.codegen.trigger import program_kernels
from repro.compiler.program import ASSIGN, Statement, Trigger, TriggerProgram

#: Schema tag of the kernel-description document.
KERNELS_SCHEMA = "repro.kernels/1"

#: IR node kinds that constitute a table access, with the report's shape name.
_ACCESS_SHAPES = {
    "primary_probe": "primary_probe",
    "index_probe": "index_probe",
    "range_probe": "range_probe",
    "full_scan": "full_scan",
    "sink_add": "sink_add",
    "replace": "replace",
}


def _accesses(nodes: list[ir.Node], context: KernelContext) -> list[dict[str, Any]]:
    """Every table access in one kernel body, in plan order."""
    tables = {handle: (kind, name) for handle, kind, name in context.tables}
    # Bound-method locals (``add``, ``range_sum``) resolve through their
    # owning handle: AddDelta and RangeProbe reference the method local, not
    # the handle itself.
    methods = {
        local: handle for (handle, _attr), local in context._method_locals.items()
    }

    def resolve(handle: str) -> tuple[str, str]:
        handle = methods.get(handle, handle)
        return tables.get(handle, ("?", handle))

    out: list[dict[str, Any]] = []
    for node in ir.walk(nodes):
        shape = _ACCESS_SHAPES.get(node.kind)
        if shape is None:
            continue
        if node.kind == "range_probe":
            kind, name = resolve(node.probe_local)
        elif node.kind == "sink_add":
            kind, name = resolve(node.add_local)
        else:  # probes, scans and replace name their handle
            kind, name = resolve(node.handle)
        access: dict[str, Any] = {"table": name, "kind": kind, "shape": shape}
        if node.kind == "index_probe":
            access["colset"] = node.colset
        elif node.kind == "range_probe":
            access["column"] = node.column
            access["op"] = node.op
        out.append(access)
    return out


def describe_statement(statement: Statement, program: TriggerProgram) -> dict[str, Any]:
    """Plan one statement and describe its physical shape (or its fallback)."""
    description: dict[str, Any] = {
        "target": statement.target,
        "operation": statement.operation,
    }
    try:
        compiler = _StatementCompiler(statement, program)
        body = compiler.compile()
        nodes = compiler.ctx.preamble() + body
    except Unsupported as exc:
        description["compiled"] = False
        description["fallback_reason"] = str(exc)
        return description
    description["compiled"] = True
    description["ir_ops"] = ir.count_ops(nodes)
    description["accesses"] = _accesses(nodes, compiler.ctx)
    return description


def describe_trigger(trigger: Trigger, program: TriggerProgram) -> dict[str, Any]:
    """One trigger's statement plans plus its fusion and vectorization outcome.

    ``fused`` and ``vectorized`` read the program's own kernels, the ones
    its engines run: ``vectorized`` is the outcome of the trigger's one
    vector-kernel compile attempt; each ``+=`` statement is vectorized
    exactly when its trigger is, and otherwise carries the attempt's reason.
    """
    from repro.codegen import vector

    statements = [describe_statement(s, program) for s in trigger.statements]
    fused = program_kernels(program).get((trigger.sign, trigger.relation))
    kernel = vector.program_vector_kernel(trigger, program)
    reason = kernel if isinstance(kernel, str) else None
    for statement in statements:
        statement["vectorized"] = reason is None and statement["operation"] != ASSIGN
        if not statement["vectorized"]:
            statement["vector_reason"] = reason or "not an increment statement"
    description: dict[str, Any] = {
        "relation": trigger.relation,
        "op": "insert" if trigger.sign > 0 else "delete",
        "statements": statements,
        "fused": fused is not None,
        "vectorized": reason is None,
    }
    if fused is not None:
        description["fusion"] = {
            "fused_statements": fused.fused_statements,
            "deduped_probes": fused.deduped_probes,
            "deduped_scalars": fused.deduped_scalars,
            "ir_ops": fused.ir_ops,
        }
    return description


def describe_program(program: TriggerProgram) -> dict[str, Any]:
    """The full ``repro.kernels/1`` document for one trigger program."""
    triggers = [
        describe_trigger(trigger, program)
        for trigger in program.triggers.values()
    ]
    compiled = sum(
        1 for t in triggers for s in t["statements"] if s["compiled"]
    )
    fallbacks = [
        {
            "relation": t["relation"],
            "op": t["op"],
            "target": s["target"],
            "reason": s["fallback_reason"],
        }
        for t in triggers
        for s in t["statements"]
        if not s["compiled"]
    ]
    # Per-map probe-shape rollup: which access shapes reach each map, across
    # every trigger — the physical-design summary the explain report leads
    # with (and the input an adaptive index selector would consume).
    maps: dict[str, dict[str, Any]] = {}
    for name, decl in program.maps.items():
        maps[name] = {
            "keys": list(decl.keys),
            "level": decl.level,
            "degree": decl.degree,
            "definition": decl.pretty(),
            "access_shapes": {},
        }
    for t in triggers:
        for s in t["statements"]:
            for access in s.get("accesses", ()):
                if access["kind"] != "map" or access["table"] not in maps:
                    continue
                shapes = maps[access["table"]]["access_shapes"]
                shapes[access["shape"]] = shapes.get(access["shape"], 0) + 1
    return {
        "schema": KERNELS_SCHEMA,
        "roots": {root: program.roots[root] for root in sorted(program.roots)},
        "stream_relations": sorted(program.stream_relations),
        "static_relations": sorted(program.static_relations),
        "maps": maps,
        "triggers": triggers,
        "summary": {
            "triggers": sum(1 for t in triggers if t["statements"]),
            "compiled_statements": compiled,
            "vectorized_statements": sum(
                1 for t in triggers for s in t["statements"] if s["vectorized"]
            ),
            "fallback_statements": len(fallbacks),
            "fallbacks": fallbacks,
            "fused_kernels": sum(1 for t in triggers if t["fused"]),
            "deduped_probes": sum(
                t.get("fusion", {}).get("deduped_probes", 0) for t in triggers
            ),
            "deduped_scalars": sum(
                t.get("fusion", {}).get("deduped_scalars", 0) for t in triggers
            ),
        },
    }
