"""Codegen for the former fallback classes: ``:=``, nested AggSum, Exists.

Every test pits a :class:`CompiledEngine` against an :class:`IncrementalEngine`
on the same program and stream and requires bit-identical views — values and
types — which is the compiled engine's contract.  The finance queries cover
the real-world shapes (ordered range probes, grouped aggregate factors,
assign kernels); the synthetic programs pin the corners the workloads do not
reach (Exists, equality lifts over aggregates, clearing assigns).
"""

import random

import pytest

from repro.agca.ast import (
    AggSum,
    Cmp,
    Exists,
    Lift,
    MapRef,
    Product,
    Relation,
    Sum,
    Value,
    VArith,
    VConst,
    VVar,
)
from repro.codegen import CompiledEngine, try_fuse_trigger
from repro.compiler.hoivm import compile_query
from repro.compiler.program import (
    ASSIGN,
    INCREMENT,
    MapDeclaration,
    Statement,
    Trigger,
    TriggerProgram,
)
from repro.delta.events import DELETE, INSERT, StreamEvent, TriggerEvent
from repro.runtime.engine import IncrementalEngine
from repro.workloads import workload

FINANCE = ("AXF", "BSP", "BSV", "MST", "PSP", "VWAP")


def _make_program(statements, maps, schemas, streams=("R",)):
    triggers = {}
    for stmt in statements:
        trigger = triggers.setdefault(
            stmt.event.name, Trigger(stmt.event.relation, stmt.event.sign)
        )
        trigger.statements.append(stmt)
    return TriggerProgram(
        roots={name: name for name in maps},
        maps=maps,
        triggers=triggers,
        schemas=dict(schemas),
        stream_relations=tuple(streams),
    )


def _assert_identical(program, events):
    interpreted = IncrementalEngine(program)
    compiled = CompiledEngine(program)
    for event in events:
        interpreted.apply(event)
        compiled.apply(event)
        for name in program.maps:
            want = interpreted.maps.table(name)
            have = compiled.maps.table(name)
            assert dict(want.items()) == dict(have.items()), name
    for name in program.maps:
        for row, value in interpreted.maps.table(name).items():
            other = compiled.maps.table(name).get(row)
            assert other == value and type(other) is type(value), (name, row)
    return compiled


def _mirrored(statements):
    """Insert statements plus their delete-trigger twins (negated deltas)."""
    out = list(statements)
    for stmt in statements:
        event = stmt.event
        delete = TriggerEvent(event.relation, -1, event.columns, event.trigger_vars)
        if stmt.operation == INCREMENT:
            inner = stmt.expr.terms if isinstance(stmt.expr, Product) else (stmt.expr,)
            expr = Product((Value(VConst(-1)),) + tuple(inner))
        else:
            expr = stmt.expr
        out.append(
            Statement(
                target=stmt.target,
                target_keys=stmt.target_keys,
                operation=stmt.operation,
                expr=expr,
                event=delete,
            )
        )
    return out


def _stream(count, seed=5, lo=0, hi=12):
    rng = random.Random(seed)
    live = []
    events = []
    for _ in range(count):
        if live and rng.random() < 0.3:
            events.append(StreamEvent("R", live.pop(rng.randrange(len(live))), DELETE))
        else:
            values = (rng.randint(lo, hi), rng.randint(1, 9))
            live.append(values)
            events.append(StreamEvent("R", values, INSERT))
    return events


@pytest.mark.parametrize("name", FINANCE)
def test_finance_queries_compile_with_zero_fallbacks(name):
    spec = workload(name)
    translated = spec.query_factory()
    program = compile_query(
        translated.roots(),
        translated.schemas(),
        static_relations=translated.static_relations(),
    )
    engine = CompiledEngine(program)
    stats = engine.codegen.codegen_statistics()
    assert stats["fallback_statements"] == 0, stats["fallbacks"]
    assert stats["compiled_statements"] == program.statement_count()


def test_vwap_assign_kernel_uses_the_range_probe():
    spec = workload("VWAP")
    translated = spec.query_factory()
    program = compile_query(
        translated.roots(),
        translated.schemas(),
        static_relations=translated.static_relations(),
    )
    engine = CompiledEngine(program)
    # The := steps of each trigger, fused apart as the batched engine runs
    # them once per run, and inside the per-event kernel.
    assigning = [
        trigger for trigger in program.triggers.values()
        if any(stmt.operation == ASSIGN for stmt in trigger.statements)
    ]
    sources = [
        try_fuse_trigger(trigger, program, increments=False).source
        for trigger in assigning
    ]
    assert sources and all(".range_sum" in source for source in sources)
    for trigger in assigning:
        kernel = engine.codegen.trigger_kernel_for(trigger.sign, trigger.relation)
        assert ".range_sum" in kernel.source
    # The probes actually fire: after a stream, the guarded map's ordered
    # index reports probe traffic with zero exact-regime scan fallbacks.
    for event in spec.stream_factory(events=200):
        engine.apply(event)
    stats = engine.maps.table("M3").ordered_index_stats()["b2_price"]
    assert stats["probes"] > 0 and stats["scan_fallbacks"] == 0


EVENT = TriggerEvent("R", 1, ("a", "b"), ("r_a", "r_b"))
SCHEMAS = {"R": ("a", "b")}


def test_exists_factor_compiles_and_matches():
    maps = {
        "M": MapDeclaration("M", ("p",), Relation("R", ("p", "b"))),
        "T": MapDeclaration("T", (), Relation("R", ("a", "b"))),
    }
    statements = _mirrored(
        [
            Statement(
                target="T",
                target_keys=(),
                operation=INCREMENT,
                expr=Product(
                    (
                        Value(VVar("r_a")),
                        Exists(
                            Product(
                                (MapRef("M", ("p",)), Cmp(VVar("p"), ">", VVar("r_b")))
                            )
                        ),
                    )
                ),
                event=EVENT,
            ),
            Statement(
                target="M",
                target_keys=("r_a",),
                operation=INCREMENT,
                expr=Value(VVar("r_b")),
                event=EVENT,
            ),
        ]
    )
    program = _make_program(statements, maps, SCHEMAS)
    compiled = _assert_identical(program, _stream(400))
    stats = compiled.codegen.codegen_statistics()
    assert stats["fallback_statements"] == 0


def test_lift_over_aggregate_binds_and_checks_equality():
    # z is lifted from a nested aggregate twice: once binding, once as an
    # equality check against an already-bound variable (the trigger's r_a).
    maps = {
        "M": MapDeclaration("M", ("p",), Relation("R", ("p", "b"))),
        "T": MapDeclaration("T", (), Relation("R", ("a", "b"))),
    }
    nested = AggSum((), Product((MapRef("M", ("p",)), Cmp(VVar("p"), ">=", VVar("r_b")))))
    statements = _mirrored(
        [
            Statement(
                target="T",
                target_keys=(),
                operation=INCREMENT,
                expr=Product((Lift("z", nested), Value(VArith("+", VVar("z"), VConst(1))))),
                event=EVENT,
            ),
            Statement(
                target="T",
                target_keys=(),
                operation=INCREMENT,
                expr=Product((Lift("r_a", nested),)),  # equality gate on r_a
                event=EVENT,
            ),
            Statement(
                target="M",
                target_keys=("r_a",),
                operation=INCREMENT,
                expr=Value(VConst(1)),
                event=EVENT,
            ),
        ]
    )
    program = _make_program(statements, maps, SCHEMAS)
    compiled = _assert_identical(program, _stream(400))
    assert compiled.codegen.codegen_statistics()["fallback_statements"] == 0


def test_assign_with_no_matches_clears_the_target():
    maps = {
        "M": MapDeclaration("M", ("p",), Relation("R", ("p", "b"))),
        "T": MapDeclaration("T", ("p",), Relation("R", ("p", "b"))),
    }
    statements = _mirrored(
        [
            Statement(
                target="M",
                target_keys=("r_a",),
                operation=INCREMENT,
                expr=Value(VVar("r_b")),
                event=EVENT,
            ),
            Statement(
                target="T",
                target_keys=("p",),
                operation=ASSIGN,
                expr=Product((MapRef("M", ("p",)), Cmp(VVar("p"), ">", VVar("r_b")))),
                event=EVENT,
            ),
        ]
    )
    program = _make_program(statements, maps, SCHEMAS)
    compiled = _assert_identical(program, _stream(400))
    assert compiled.codegen.codegen_statistics()["fallback_statements"] == 0
    # Drive an event whose guard matches nothing: the re-evaluation must
    # clear T in both engines (covered by _assert_identical), and T must be
    # empty when the guard excludes every price.
    big = StreamEvent("R", (0, 999), INSERT)
    compiled.apply(big)
    assert len(compiled.maps.table("T")) == 0


def test_sum_of_grouped_aggregates_in_assign():
    # The MST shape, miniaturized: a := statement whose terms multiply a
    # grouped aggregate with a scalar aggregate.
    maps = {
        "M": MapDeclaration("M", ("g", "p"), Relation("R", ("g", "p"))),
        "N": MapDeclaration("N", ("q",), Relation("R", ("q", "b"))),
        "T": MapDeclaration("T", ("g",), Relation("R", ("g", "b"))),
    }
    grouped = AggSum(
        ("g",),
        Product((MapRef("M", ("g", "p")), Cmp(VVar("p"), ">", VConst(3)))),
    )
    scalar = AggSum((), Product((MapRef("N", ("q",)), Cmp(VVar("q"), "<=", VConst(6)))))
    statements = _mirrored(
        [
            Statement(
                target="M",
                target_keys=("r_a", "r_b"),
                operation=INCREMENT,
                expr=Value(VConst(1)),
                event=EVENT,
            ),
            Statement(
                target="N",
                target_keys=("r_b",),
                operation=INCREMENT,
                expr=Value(VVar("r_a")),
                event=EVENT,
            ),
            Statement(
                target="T",
                target_keys=("g",),
                operation=ASSIGN,
                expr=Sum(
                    (
                        Product((grouped, scalar)),
                        Product((grouped, scalar, Value(VConst(-1)), Value(VConst(0.5)))),
                    )
                ),
                event=EVENT,
            ),
        ]
    )
    program = _make_program(statements, maps, SCHEMAS)
    compiled = _assert_identical(program, _stream(400))
    assert compiled.codegen.codegen_statistics()["fallback_statements"] == 0
