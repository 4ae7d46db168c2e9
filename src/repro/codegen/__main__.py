"""Command-line inspection of generated trigger kernels.

``dump`` compiles a workload query and prints, per trigger, the fused kernel
source together with IR operation counts and the fusion/dedup statistics —
the tool to reach for when a generated kernel misbehaves or a fusion win
needs verifying::

    python -m repro.codegen dump Q3
    python -m repro.codegen dump Q1 --trigger Lineitem:+
    python -m repro.codegen dump Q17a --trigger Lineitem:+ --agca

``--trigger REL:+`` / ``REL:-`` restricts the output to one (relation, op)
trigger; ``--agca`` prints each statement's AGCA expression above the kernel
it compiles into, so the domain equalities and probe keys the delta compiler
chose can be read next to the loops they became.  A trigger the fuser
declines runs on the interpreter, and every one of its statements prints
``interpreter fallback`` with the planner's reason; ``--json`` emits the
``repro.kernels/1`` machine description instead — the same document
``python -m repro.inspect explain`` joins with observed statistics.
"""

from __future__ import annotations

import argparse

from repro.codegen.describe import describe_program, describe_statement
from repro.codegen.engine import CompiledEngine
from repro.compiler.hoivm import compile_query
from repro.workloads import all_workloads, workload


def _parse_trigger(text: str) -> tuple[str, int]:
    relation, _, op = text.partition(":")
    if op not in ("+", "-") or not relation:
        raise argparse.ArgumentTypeError(
            f"expected REL:+ or REL:- (e.g. Lineitem:+), got {text!r}"
        )
    return relation, 1 if op == "+" else -1


def _format_ops(ops: dict[str, int]) -> str:
    return ", ".join(f"{kind}={count}" for kind, count in sorted(ops.items())) or "-"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.codegen",
        description="Inspect the kernels the codegen pipeline generates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    dump = sub.add_parser(
        "dump", help="Print generated kernel source and IR op counts for a query"
    )
    dump.add_argument("query", help="workload query name (see `python -m repro.bench list`)")
    dump.add_argument(
        "--trigger", type=_parse_trigger, default=None, metavar="REL:+/-",
        help="restrict to one trigger, e.g. Lineitem:+ or Bids:-",
    )
    dump.add_argument(
        "--agca", action="store_true",
        help="print each statement's AGCA expression above its kernel",
    )
    dump.add_argument(
        "--json", action="store_true",
        help="emit the repro.kernels/1 machine-readable kernel description "
             "(the same document the repro.inspect explain report embeds)",
    )
    dump.add_argument(
        "--backend", choices=("scalar", "vector"), default="scalar",
        help="which emitter's kernels to print: the scalar/fused source "
             "(default) or the columnar numpy batch kernel of each trigger, "
             "with the reason wherever a trigger does not vectorize",
    )
    return parser


def _dump_vector(query_name: str, program, triggers) -> int:
    """Print each trigger's columnar batch kernel, or the reason there is none."""
    from repro.codegen import vector

    if not vector.numpy_available():
        print(f"{query_name}: vector backend unavailable ({vector.vector_unavailable_reason()})")
        return 2

    kernels = {trigger.name: vector.program_vector_kernel(trigger, program) for trigger in triggers}
    compiled = [k for k in kernels.values() if not isinstance(k, str)]
    print(
        f"{query_name}: {sum(len(k.sinks) for k in compiled)}/"
        f"{sum(len(t.statements) for t in triggers)} statements vectorized; "
        f"vector kernels: {len(compiled)} (one per trigger; the rest run the scalar path)"
    )
    for trigger in triggers:
        kernel = kernels[trigger.name]
        print()
        if isinstance(kernel, str):
            print(f"== {trigger.name}: scalar ({kernel}) ==")
            continue
        print(f"== {trigger.name}: vector kernel ({len(kernel.sinks)} statements) ==")
        print(kernel.source, end="")
        for position, (target, positions) in enumerate(kernel.sinks):
            keys = ", ".join(program.maps[target].keys)
            merge = "segmented cumsum merge" if positions else "single running total"
            print(f"-- sink {position} -> {target}[{keys}] ({merge})")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = workload(args.query)
    except KeyError:
        print(f"unknown query {args.query!r}; available: {', '.join(sorted(all_workloads()))}")
        return 2

    translated = spec.query_factory()
    program = compile_query(
        translated.roots(),
        translated.schemas(),
        static_relations=translated.static_relations(),
    )
    if args.json:
        import json

        print(json.dumps(describe_program(program), indent=2, sort_keys=True))
        return 0

    triggers = sorted(
        program.triggers.values(), key=lambda t: (t.relation, -t.sign)
    )
    if args.trigger is not None:
        relation, sign = args.trigger
        triggers = [t for t in triggers if t.relation == relation and t.sign == sign]
        if not triggers:
            print(f"no trigger for {relation}:{'+' if sign > 0 else '-'} in {args.query}")
            return 2
    if args.backend == "vector":
        return _dump_vector(args.query, program, triggers)
    engine = CompiledEngine(program)
    executor = engine.codegen

    summary = executor.codegen_statistics()
    print(
        f"{args.query}: {summary['compiled_statements']} statements compiled, "
        f"{summary['fallback_statements']} on the interpreter; "
        f"{summary['fused_kernels']} fused kernels "
        f"({summary['deduped_probes']} probes, "
        f"{summary['deduped_scalars']} scalars deduped)"
    )
    def print_agca(position: int, statement) -> None:
        if args.agca:
            print(f"-- statement {position} AGCA: {statement.pretty()}")

    for trigger in triggers:
        fused = executor.trigger_kernel_for(trigger.sign, trigger.relation)
        print()
        if fused is not None:
            print(
                f"== {trigger.name}: fused kernel "
                f"({fused.fused_statements} statements, "
                f"{fused.deduped_probes} probes + "
                f"{fused.deduped_scalars} scalars deduped) =="
            )
            for position, statement in enumerate(trigger.statements):
                print_agca(position, statement)
            print(fused.source, end="")
            print(f"-- IR ops: {_format_ops(fused.ir_ops)}")
            continue
        if not trigger.statements:
            print(f"== {trigger.name}: no statements ==")
            continue
        print(f"== {trigger.name}: interpreted (no fused kernel) ==")
        for position, statement in enumerate(trigger.statements):
            print_agca(position, statement)
            reason = describe_statement(statement, program).get(
                "fallback_reason", "its trigger does not fuse"
            )
            print(
                f"-- statement {position} -> {statement.target}: "
                f"interpreter fallback ({reason})"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
